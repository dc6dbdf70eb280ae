package hotelbench

import scala.collection.mutable
import repro.core.{EType, Value}
import repro.core.Value._

/** The hotel service's replies and final state, computed from the seeded
  * dataset and the request list alone: plain maps, no `Compiler`, no
  * `Eval`, no runtime.
  *
  *  - search: the profiles of the region's five best-rated hotels that still
  *    have capacity, best first;
  *  - recommend(k): the profiles of the region's k best-rated hotels;
  *  - login: whether the password matches the user's;
  *  - reserve: succeeds while the hotel has capacity left, and then adds one
  *    reservation to the user.
  *
  * Ratings order hotels best first; equal ratings keep the region's hotel
  * list order. Requests are applied in the order [[reply]] is called.
  */
final class Reference(seeds: Seq[(String, String, Map[String, Value])]) {

  private def fieldsOf(clazz: String): Map[String, Map[String, Value]] =
    seeds.collect { case (`clazz`, k, f) => k -> f }.toMap

  private val hotelSeeds = fieldsOf("Hotel")
  private val capacity: Map[String, Long] = hotelSeeds.map { case (h, f) => h -> f("capacity").asInt }
  private val rating: Map[String, Double] = hotelSeeds.map { case (h, f) => h -> f("rate").asDouble }
  private val password: Map[String, String] = fieldsOf("User").map { case (u, f) => u -> f("password").asStr }

  /** Region -> its hotels, best rated first. */
  private val ranked: Map[String, Vector[String]] = fieldsOf("Geo").map { case (region, f) =>
    region -> f("hotels").asList.map(_.asRef.key).sortBy(h => -rating(h))
  }

  /** (region, hotel) -> profile text, as the region's profile service holds it. */
  private val profile: Map[(String, String), String] = fieldsOf("Profile").flatMap { case (region, f) =>
    f("hotels").asList.map(_.asRef.key).zip(f("profiles").asList.map(_.asStr))
      .map { case (h, p) => (region, h) -> p }
  }

  /** Reserve attempts per hotel, and successful reserves per hotel and user. */
  val attempts = mutable.Map.empty[String, Long].withDefaultValue(0L)
  val reserved = mutable.Map.empty[String, Long].withDefaultValue(0L)
  val booked   = mutable.Map.empty[String, Long].withDefaultValue(0L)

  private def profiles(region: String, hs: Seq[String]): Value =
    VList(EType.TStr, hs.map(h => str(profile((region, h)))).toVector)

  /** The reply to `call`, applying its effect to the reference state. */
  def reply(call: (String, String, String, List[Value])): Value = call match {
    case ("Search", region, "search", _) =>
      profiles(region, ranked(region).take(5).filter(h => reserved(h) < capacity(h)))
    case ("Recommendation", region, "recommend", List(k)) =>
      profiles(region, ranked(region).take(k.asInt.toInt))
    case ("User", user, "login", List(pw)) =>
      bool(password(user) == pw.asStr)
    case ("Reservation", _, "reserve", u :: h :: _) =>
      val hotel = h.asRef.key
      attempts(hotel) += 1
      val ok = reserved(hotel) < capacity(hotel)
      if (ok) { reserved(hotel) += 1; booked(u.asRef.key) += 1 }
      bool(ok)
    case other =>
      throw new IllegalArgumentException(s"no reference reply for $other")
  }

  /** What an exact runtime must hold at the end: each hotel's `reserved` is
    * LEAST(capacity, attempts) and each user holds one reservation per
    * successful reserve. */
  def expectedReserved(hotel: String): Long = math.min(capacity(hotel), attempts(hotel))
  def expectedReservations(user: String): Long = booked(user)
}
