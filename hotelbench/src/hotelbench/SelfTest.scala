package hotelbench

import repro.core.{EType, Interpreter, Value}
import repro.core.Value._
import repro.deathstar.{BaselineHotel, HotelApp, Workload}
import repro.faas.SimKV
import repro.runtime.LocalRuntime

/** The benchmark's test of its own reference and checks:
  *
  *  - on a small workload with scarce capacity, the reference's replies and
  *    final hotel state equal those of the hand-written port
  *    (`BaselineHotel`) and of the unsplit `Interpreter`;
  *  - a deliberately corrupted reply is a failed operation and makes the
  *    run incorrect; a request that throws is a failed operation only.
  *
  * Prints the benchmark's metric names last, for `test.py` to compare with
  * BENCHMARK.json. Exits non-zero on the first failed assertion.
  */
object SelfTest {

  private def check(ok: Boolean, what: => String): Unit =
    if (!ok) { Console.err.println(s"SelfTest FAILED: $what"); sys.exit(1) }

  private def strs(xs: Seq[String]): Value = VList(EType.TStr, xs.map(str).toVector)

  def main(args: Array[String]): Unit = {
    val spec = Data.Spec(regions = 3, hotelsPerRegion = 6, users = 20, capacity = 2)
    val mix = Workload.Mix(search = 0.3, recommend = 0.3, login = 0.2, reserve = 0.2)
    val reqs = Workload.generate(600, mix, spec.regions, spec.hotelsPerRegion, spec.users, seed = 7L)

    val ref = new Reference(spec.seeds)
    val interp = new Interpreter(HotelApp.program)
    spec.seeds.foreach { case (c, k, f) => interp.seed(c, k, f) }
    val base = new BaselineHotel(new SimKV())
    base.seed(spec.regions, spec.hotelsPerRegion, spec.users, spec.capacity)

    var failures = 0
    reqs.zipWithIndex.foreach { case (r, i) =>
      val (c, k, m, as) = r.call
      val expected = ref.reply(r.call)
      val baseline = (m, as) match {
        case ("search", List(in, out)) => strs(base.search(k, in.asInt, out.asInt))
        case ("recommend", List(n))    => strs(base.recommend(k, n.asInt.toInt))
        case ("login", List(pw))       => bool(base.login(k, pw.asStr))
        case ("reserve", u :: h :: in :: out :: Nil) =>
          bool(base.reserve(k, u.asRef.key, h.asRef.key, in.asInt, out.asInt))
        case other => throw new IllegalArgumentException(s"$other")
      }
      check(baseline == expected, s"request $i ${r.call}: reference $expected, BaselineHotel $baseline")
      val interpreted = interp.invoke(c, k, m, as)
      check(interpreted == expected, s"request $i ${r.call}: reference $expected, Interpreter $interpreted")
      if (expected == bool(false)) failures += 1
    }
    check(failures > 0, "the small workload must exhaust some hotel's capacity")
    spec.hotelIds.foreach { h =>
      val got = interp.snapshot("Hotel", h)("reserved").asInt
      check(got == ref.expectedReserved(h), s"Hotel $h reserved: Interpreter $got, reference ${ref.expectedReserved(h)}")
    }
    spec.userIds.foreach { u =>
      val got = interp.snapshot("User", u)("reservations").asList.size
      check(got == ref.expectedReservations(u), s"User $u reservations: Interpreter $got")
    }
    println(s"reference = BaselineHotel = Interpreter on ${reqs.size} requests ($failures reserves refused)")

    // The checks of a closed loop through LocalRuntime.
    def loop(send: (Long, Value) => Value): Checks = {
      val rt = new LocalRuntime(repro.core.Compiler.compile(HotelApp.program))
      spec.seeds.foreach { case (c, k, f) => rt.seed(c, k, f) }
      val checks = new Checks
      ClosedLoop.warmAndRun(1, new Data.Requests(3L, Workload.paperMix, spec), new Reference(spec.seeds), checks,
                            warmup = 50, seconds = 0.2) { (_, i, r) =>
        send(i, rt.invoke(r.call._1, r.call._2, r.call._3, r.call._4))
      }
      checks
    }
    val clean = loop((_, v) => v)
    check(clean.correct && clean.failed.get == 0 && clean.attempted.get > 50, "untouched replies must pass")
    val corrupted = loop { (i, v) =>
      if (i != 20) v else v match {
        case VBool(b)     => VBool(!b)
        case VList(t, xs) => VList(t, xs :+ str("corrupted"))
        case other        => str(s"corrupted $other")
      }
    }
    check(!corrupted.correct && corrupted.failed.get == 1, s"a corrupted reply must fail: ${corrupted.failed.get}")
    val thrown = loop((i, v) => if (i == 30) throw new RuntimeException("injected") else v)
    check(thrown.correct && thrown.failed.get == 1, "a request that throws is one failed operation")
    println("corrupted reply -> 1 failed operation, run incorrect; thrown request -> 1 failed operation")

    val perLayer = Main.perLayer.map { case (n, u) => s"""["$n", "$u"]""" }.mkString("[", ", ", "]")
    println(s"""names {"end_to_end": ${Main.endToEnd.map(n => s""""$n"""").mkString("[", ", ", "]")}, "per_layer": $perLayer}""")
  }
}
