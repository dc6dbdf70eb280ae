package hotelbench

import scala.collection.mutable.ArrayBuffer
import repro.core.Value
import repro.deathstar.{HotelApp, Workload}
import repro.deathstar.Workload.{Mix, Request}

/** The datasets and request streams of the workloads and of the streaming
  * runtime's traced calls. Everything here is a pure function of the
  * workload seed. */
object Data {

  /** A hotel dataset as `HotelApp.seeds` builds it. */
  final case class Spec(regions: Int, hotelsPerRegion: Int, users: Int, capacity: Int) {
    def seeds: Seq[(String, String, Map[String, Value])] =
      HotelApp.seeds(regions, hotelsPerRegion, users, capacity)
    def hotelIds: Seq[String] =
      for (r <- 0 until regions; i <- 0 until hotelsPerRegion) yield s"h-$r-$i"
    def userIds: Seq[String] = (0 until users).map(u => s"u-$u")
  }

  /** hotel-local, hotel-faas and the batch runtime's traced calls. The
    * capacity is far above the reserve attempts any hotel can receive in a
    * run, so every reply is independent of how a runtime interleaves
    * requests. */
  val hotels: Spec = Spec(regions = 20, hotelsPerRegion = 20, users = 1000, capacity = 1000000000)

  /** The streaming runtime's traced calls. A popular hotel receives more
    * attempts than its capacity within a run, so both reserve outcomes
    * occur. */
  val stream: Spec = Spec(regions = 4, hotelsPerRegion = 8, users = 50, capacity = 3)

  val reserveOnly: Mix = Workload.only("reserve")

  val ChunkSize = 4096

  /** Seed of chunk `c` of the request stream of workload seed `seed`. */
  def chunkSeed(seed: Long, c: Int): Long = seed * 1000003L + c

  /** Requests 0, 1, 2, ... of a workload: `Workload.generate` chunks of
    * [[ChunkSize]] requests, each from its own seed, made on first use. */
  final class Requests(seed: Long, mix: Mix, spec: Spec) {
    private val chunks = ArrayBuffer.empty[IndexedSeq[Request]]

    def apply(i: Long): Request = synchronized {
      val c = (i / ChunkSize).toInt
      while (chunks.size <= c)
        chunks += Workload.generate(ChunkSize, mix, spec.regions, spec.hotelsPerRegion,
                                    spec.users, chunkSeed(seed, chunks.size)).toIndexedSeq
      chunks(c)((i % ChunkSize).toInt)
    }
  }

  val endpoints: Seq[String] = Seq("search", "recommend", "login", "reserve")
}
