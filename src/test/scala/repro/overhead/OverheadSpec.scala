package repro.overhead

import repro.SparkSpec
import repro.core.Value

/** The §4 overhead experiment's instrumentation: component attribution and
  * the paper's <1% StateFlow-share claim at realistic state sizes. */
class OverheadSpec extends SparkSpec {

  test("breakdown components are all positive") {
    val b = OverheadProbe.run(stateKb = 50, events = 100)
    assert(b.enterNs > 0); assert(b.headerDecodeNs > 0)
    assert(b.stateDecodeNs > 0)
    assert(b.execNs > 0); assert(b.stateEncodeNs > 0); assert(b.storeNs > 0)
  }

  test("state (de)serialization scales with state size") {
    val small = OverheadProbe.run(stateKb = 50, events = 150)
    val large = OverheadProbe.run(stateKb = 200, events = 150)
    assert(large.stateDecodeNs > 1.5 * small.stateDecodeNs,
      s"decode: 200KB=${large.stateDecodeNs} vs 50KB=${small.stateDecodeNs}")
    assert(large.stateEncodeNs > 1.5 * small.stateEncodeNs)
  }

  test("StateFlow cost is payload-independent while runtime cost scales") {
    val small = OverheadProbe.run(stateKb = 50, events = 150)
    val large = OverheadProbe.run(stateKb = 200, events = 150)
    // StateFlow's own work (routing + construction) stays at µs scale no
    // matter the payload; the runtime's state handling is 2 orders of
    // magnitude above it and grows with the payload. (Share *monotonicity*
    // between adjacent sizes is too noisy to assert at µs granularity; the
    // <1% claim test above covers the paper's actual statement.)
    assert(small.stateflowNs < 50_000 && large.stateflowNs < 50_000)
    assert(large.runtimeNs > 2 * small.runtimeNs - 200_000)
    assert(large.runtimeNs > 20 * large.stateflowNs)
  }

  test("paper claim: StateFlow is responsible for <1% of total overhead") {
    for (kb <- List(50, 100, 150, 200)) {
      val b = OverheadProbe.run(stateKb = kb, events = 200)
      assert(b.stateflowShare < 0.01,
        f"stateKb=$kb: share=${b.stateflowShare * 100}%.2f%% " +
          f"(stateflow=${b.stateflowNs}%.0fns total=${b.totalNs}%.0fns)")
    }
  }

  test("store penalty is attributed to the runtime") {
    val cheap  = OverheadProbe.run(stateKb = 50, events = 100, storePenaltyNs = 0)
    val costly = OverheadProbe.run(stateKb = 50, events = 100, storePenaltyNs = 500_000)
    // The penalty raises the store component, the store counts towards
    // the runtime, and StateFlow's own work stays at µs scale. Across the
    // two runs only the store is compared, not totals or shares: between
    // runs the codec's time moves by hundreds of µs, and StateFlow's
    // µs-scale time by several-fold.
    assert(costly.storeNs > cheap.storeNs + 300_000)
    assert(costly.storeNs >= 500_000)
    assert(costly.runtimeNs >= costly.storeNs)
    assert(costly.stateflowNs < 50_000)
  }

  test("probe state round-trips (counter advances across events)") {
    // run() writes the state back through the store after every event;
    // each bump must see the counter its predecessor stored, warm-up
    // events included.
    val b = OverheadProbe.run(stateKb = 1, events = 10)
    assert(b.events == 10)
    assert(b.lastReply == Value.int(1010))
  }
}
