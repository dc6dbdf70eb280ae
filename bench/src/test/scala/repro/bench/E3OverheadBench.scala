package repro.bench

import repro.SparkSpec
import repro.overhead.OverheadProbe
import TableFmt._

/** Table E3 (paper §4 "System overhead"): per-event component breakdown on
  * the real operator path with state sizes 50–200 KB.
  *
  * Paper's result to reproduce: StateFlow's own components (routing +
  * object construction) account for <1% of total per-event time; the bulk
  * is the runtime's state (de)serialization and storage.
  */
class E3OverheadBench extends SparkSpec {

  private lazy val rows = List(50, 100, 150, 200).map(kb => OverheadProbe.run(kb, events = 300))

  test("E3: print the overhead breakdown table") {
    println(TableFmt.render(
      "E3 — per-event component time (µs) vs state size",
      Seq("state KB", "StateFlow (route + construct)", "env decode", "state decode",
          "exec", "state encode", "store", "stateflow share"),
      rows.map { b =>
        Seq(b.stateKb.toString,
            fmtMs(b.enterNs / 1000), fmtMs(b.headerDecodeNs / 1000),
            fmtMs(b.stateDecodeNs / 1000),
            fmtMs(b.execNs / 1000), fmtMs(b.stateEncodeNs / 1000),
            fmtMs(b.storeNs / 1000), fmtPct(b.stateflowShare))
      }))
    assert(rows.map(_.stateKb) == List(50, 100, 150, 200))
  }

  test("E3: StateFlow share is <1% at every state size (paper headline)") {
    rows.foreach { b =>
      assert(b.stateflowShare < 0.01,
        f"stateKb=${b.stateKb}: ${b.stateflowShare * 100}%.2f%%")
    }
  }

  test("E3: runtime state handling dominates and grows with state size") {
    assert(rows.last.runtimeNs > rows.head.runtimeNs * 1.8)
    rows.foreach(b => assert(b.runtimeNs > 10 * b.stateflowNs))
  }

  test("E3: StateFlow absolute cost is flat in state size (payload-independent)") {
    assert(rows.last.stateflowNs < 5 * rows.head.stateflowNs)
  }
}
