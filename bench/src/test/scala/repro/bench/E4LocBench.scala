package repro.bench

import repro.SparkSpec
import repro.deathstar.Loc
import TableFmt._

/** Table E4 (paper §4 "StateFlow's abstraction vs other systems"):
  * lines-of-code comparison.
  *
  * Paper's numbers: StateFlow hotel service ±200 LOC (all business logic);
  * original Go implementation ±500 LOC, ~30% infrastructure; switching
  * runtimes <10 LOC. Ours: the StateFlow side is counted in the paper's
  * input language (the entity program unparsed to annotated Python); the
  * baseline is a working Scala microservice port — Scala compresses
  * business logic harder than Go, so ratios shift but the ordering and the
  * zero-infra property hold.
  */
class E4LocBench extends SparkSpec {

  private lazy val sf = Loc.stateflowHotel
  private lazy val bl = Loc.baselineHotel
  private lazy val switch = Loc.runtimeSwitch

  test("E4: print the LOC table") {
    println(TableFmt.render(
      "E4 — lines of code (paper: stateflow ±200, baseline ±500 w/ ~30% infra, switch <10)",
      Seq("implementation", "total LOC", "infra LOC", "infra share"),
      Seq(
        Seq("stateflow hotel (python)", sf.total.toString, "0", "0%"),
        Seq("baseline microservices", bl.total.toString, bl.infra.toString,
            fmtPct(bl.infraShare)),
        Seq("runtime switch (4 targets)", switch.total.toString, "-", "-"),
      )))
    assert(sf.total > 0 && bl.total > 0)
  }

  test("E4: baseline is substantially larger than the StateFlow program") {
    assert(bl.total > 1.5 * sf.total)
  }

  test("E4: StateFlow program is pure business logic (0 infra LOC)") {
    assert(sf.infra == 0)
  }

  test("E4: baseline infra share is substantial (paper: ~30%)") {
    assert(bl.infraShare > 0.25)
  }

  test("E4: switching runtimes is a handful of lines (paper: <10)") {
    // 4 deployment targets in one file incl. imports: ~2-3 lines per switch.
    assert(switch.total < 18)
    assert(switch.total.toDouble / 4 < 10, "per-target switch cost under the paper's bound")
  }
}
