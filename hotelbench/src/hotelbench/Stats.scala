package hotelbench

import java.lang.management.ManagementFactory
import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable
import repro.core.Value

/** Counts operations and checks every output against the reference. A
  * wrong reply or a wrong entity state is a failed operation and makes the
  * run incorrect; an operation that throws is a failed operation only. */
final class Checks {
  val attempted = new AtomicLong(0)
  val failed = new AtomicLong(0)
  @volatile private var wrong = false
  private val shown = new AtomicLong(0)

  def correct: Boolean = !wrong

  private def fail(what: => String, isWrong: Boolean): Unit = {
    failed.incrementAndGet()
    if (isWrong) wrong = true
    if (shown.incrementAndGet() <= 5) Console.err.println(s"[hotelbench] FAILED: $what")
  }

  /** One operation whose output must equal `expected`. */
  def reply(what: => String, expected: Value, actual: Value): Unit = {
    attempted.incrementAndGet()
    if (expected != actual) fail(s"$what: expected $expected, got $actual", isWrong = true)
  }

  /** One state check. */
  def state(what: => String, ok: Boolean): Unit = {
    attempted.incrementAndGet()
    if (!ok) fail(what, isWrong = true)
  }

  /** One operation that threw. */
  def error(what: => String, e: Throwable): Unit = {
    attempted.incrementAndGet()
    fail(s"$what: $e", isWrong = false)
  }
}

/** A growable array of nanosecond samples. */
final class Samples {
  private var xs = new Array[Long](1024)
  private var n = 0
  def add(x: Long): Unit = {
    if (n == xs.length) xs = java.util.Arrays.copyOf(xs, n * 2)
    xs(n) = x; n += 1
  }
  def addAll(o: Samples): Unit = (0 until o.n).foreach(i => add(o.xs(i)))
  def size: Int = n
  def sum: Long = { var s = 0L; var i = 0; while (i < n) { s += xs(i); i += 1 }; s }
  def median: Double = {
    val s = java.util.Arrays.copyOf(xs, n)
    java.util.Arrays.sort(s)
    if (n == 0) Double.NaN else if (n % 2 == 1) s(n / 2).toDouble else (s(n / 2 - 1) + s(n / 2)) / 2.0
  }
  /** Nearest-rank quantile, `q` in [0, 1]; NaN when empty. */
  def quantile(q: Double): Double = {
    if (n == 0) return Double.NaN
    val s = java.util.Arrays.copyOf(xs, n)
    java.util.Arrays.sort(s)
    s(math.min(n - 1, math.max(0, math.ceil(q * n).toInt - 1))).toDouble
  }
}

/** Per-endpoint latency samples of one client. */
final class Latencies {
  val byEndpoint: Map[String, Samples] = Data.endpoints.map(_ -> new Samples).toMap
  def add(endpoint: String, ns: Long): Unit = byEndpoint(endpoint).add(ns)
  def addAll(o: Latencies): Unit = Data.endpoints.foreach(e => byEndpoint(e).addAll(o.byEndpoint(e)))
  /** Quantile `q` of `endpoint`'s latency in ms (the median of an even
    * count is the mean of the middle two); 0 when it sent none. */
  def ms(endpoint: String, q: Double): Double = {
    val s = byEndpoint(endpoint)
    if (s.size == 0) 0.0 else if (q == 0.5) s.median / 1e6 else s.quantile(q) / 1e6
  }
}

/** Time spent in one layer's function, and how often it ran. */
final class Acc {
  var calls = 0L
  var ns = 0L
  var bytes = 0L
  def add(dt: Long, size: Long = 0L): Unit = { calls += 1; ns += dt; bytes += size }
  def addAll(o: Acc): Unit = { calls += o.calls; ns += o.ns; bytes += o.bytes }
  def meanUs: Double = if (calls == 0) 0.0 else ns / 1e3 / calls
  def meanBytes: Double = if (calls == 0) 0.0 else bytes.toDouble / calls
}

/** Metrics in print order: name -> (value, unit). */
final class Metrics {
  val values = mutable.LinkedHashMap.empty[String, (Double, String)]
  def update(name: String, unit: String, v: Double): Unit = values(name) = (v, unit)
  def json: String = values.map { case (k, (v, u)) =>
    val num = if (v.isNaN || v.isInfinite) "0" else BigDecimal(v).bigDecimal.toPlainString
    s""""$k": {"value": $num, "unit": "$u"}"""
  }.mkString("{", ", ", "}")
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Live heap in bytes after forced full collections, repeated until a
    * collection frees less than 1 MB: objects released by cleaner threads
    * (Spark's `ContextCleaner` among them) only become garbage after the
    * collection that queued them. */
  def liveHeap(): Long = {
    val mem = ManagementFactory.getMemoryMXBean
    def collect(): Long = { System.gc(); Thread.sleep(100); mem.getHeapMemoryUsage.getUsed }
    var prev = collect()
    var used = collect()
    var rounds = 2
    while (prev - used > 1000000L && rounds < 20) { prev = used; used = collect(); rounds += 1 }
    used
  }

  def secs(ns: Long): Double = ns / 1e9
}
