package repro.deathstar

import scala.util.Random
import repro.core.Value

/** DeathStar hotel workload generator (§4).
  *
  * The paper's mixed workload: search 60 %, recommend 39 %, login 0.5 %,
  * reserve 0.5 % of requests. Regions and users are drawn with a zipf-ish
  * skew (DeathStar's clients concentrate on popular cities), seeded so
  * every runtime sees the identical request stream.
  */
object Workload {

  /** One request: endpoint name + (class, key, method, args). */
  final case class Request(endpoint: String, call: (String, String, String, List[Value]))

  final case class Mix(search: Double, recommend: Double, login: Double, reserve: Double) {
    require(math.abs(search + recommend + login + reserve - 1.0) < 1e-9, "mix must sum to 1")
  }

  /** The paper's Figure-4 mix. */
  val paperMix: Mix = Mix(search = 0.60, recommend = 0.39, login = 0.005, reserve = 0.005)

  /** Single-endpoint mixes for the Figure-3 latency experiment. */
  def only(endpoint: String): Mix = endpoint match {
    case "search"    => Mix(1, 0, 0, 0)
    case "recommend" => Mix(0, 1, 0, 0)
    case "login"     => Mix(0, 0, 1, 0)
    case "reserve"   => Mix(0, 0, 0, 1)
    case other       => throw new IllegalArgumentException(s"unknown endpoint $other")
  }

  /** Zipf(1.1)-skewed index in [0, n): the workloads' one key-skew draw. */
  private[repro] def zipf(rnd: Random, n: Int, alpha: Double = 1.1): Int = {
    val u = rnd.nextDouble()
    val x = math.pow(1.0 / (u + 1e-12), 1.0 / alpha) - 1.0
    math.min(n - 1, math.max(0, x.toInt))
  }

  /** Generate `n` requests over `nRegions` regions, `hotelsPerRegion`
    * hotels each, and `nUsers` users. */
  def generate(n: Int, mix: Mix, nRegions: Int, hotelsPerRegion: Int, nUsers: Int,
               seed: Long = 42L): Seq[Request] = {
    val rnd = new Random(seed)
    (0 until n).map { _ =>
      val region = s"reg-${zipf(rnd, nRegions)}"
      val user   = s"u-${zipf(rnd, nUsers)}"
      val hotel  = s"h-${region.stripPrefix("reg-")}-${rnd.nextInt(hotelsPerRegion)}"
      val p = rnd.nextDouble()
      if (p < mix.search)
        Request("search", HotelApp.searchReq(region, 1, 3))
      else if (p < mix.search + mix.recommend)
        Request("recommend", HotelApp.recommendReq(region))
      else if (p < mix.search + mix.recommend + mix.login)
        Request("login", HotelApp.loginReq(user))
      else
        Request("reserve", HotelApp.reserveReq(region, user, hotel))
    }
  }
}
