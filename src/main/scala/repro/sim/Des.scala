package repro.sim

import scala.collection.mutable

/** Minimal discrete-event simulation core.
  *
  * Deterministic: events fire in (time, insertion-sequence) order, so two
  * runs with the same seed produce identical schedules. Time unit is
  * milliseconds of simulated wall-clock.
  */
final class Des {

  private final case class Ev(time: Double, seq: Long, action: () => Unit)
  private implicit val ord: Ordering[Ev] =
    Ordering.by[Ev, (Double, Long)](e => (-e.time, -e.seq))

  private val pq = mutable.PriorityQueue.empty[Ev]
  private var seq = 0L

  /** Current simulated time (ms). */
  var now: Double = 0.0

  /** Schedule `action` to run `delay` ms from now. */
  def schedule(delay: Double)(action: => Unit): Unit = {
    require(delay >= 0, s"negative delay $delay")
    pq.enqueue(Ev(now + delay, seq, () => action))
    seq += 1
  }

  /** Run until no events remain. */
  def run(): Unit =
    while (pq.nonEmpty) {
      val ev = pq.dequeue()
      now = ev.time
      ev.action()
    }
}

/** A FIFO pool of `servers` identical servers (G/G/c queue).
  *
  * Models a bounded execution resource: Statefun's 20 remote Python
  * workers, a Flink cluster's 40 task slots, Lambda's 1000-way concurrency.
  * Queueing delay at high utilization is what produces the latency knees of
  * the paper's Figure 4.
  */
final class ServerPool(des: Des, val servers: Int) {
  require(servers > 0, "pool needs at least one server")

  private val waiting = mutable.Queue.empty[(Double, () => Unit)]
  private var busy = 0

  /** Peak queue length seen (diagnostics). */
  var maxQueue: Int = 0
  /** Total busy server-milliseconds (for utilization accounting). */
  var busyMs: Double = 0.0

  /** Occupy one server for `serviceMs`, then run `onDone`; queues FIFO when
    * all servers are busy. */
  def submit(serviceMs: Double)(onDone: => Unit): Unit = {
    if (busy < servers) start(serviceMs, () => onDone)
    else {
      waiting.enqueue((serviceMs, () => onDone))
      maxQueue = math.max(maxQueue, waiting.size)
    }
  }

  private def start(serviceMs: Double, onDone: () => Unit): Unit = {
    busy += 1
    busyMs += serviceMs
    des.schedule(serviceMs) {
      busy -= 1
      onDone()
      if (waiting.nonEmpty && busy < servers) {
        val (svc, done) = waiting.dequeue()
        start(svc, done)
      }
    }
  }
}
