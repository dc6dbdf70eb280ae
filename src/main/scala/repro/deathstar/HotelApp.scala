package repro.deathstar

import repro.core._
import repro.core.Ast._
import repro.core.EType._
import repro.core.Value._

/** The DeathStar benchmark's hotel service (§4) ported to stateful
  * entities, matching the paper's endpoint structure:
  *
  *  - `login`    — 1 stateful entity call (User);
  *  - `search`   — 9 stateful entity calls: "three to search, to retrieve
  *    the geoinformation and rating of hotels, five to check for the hotel
  *    availability, and one to get the profiles of the available hotels"
  *    (client→Search, Search→Geo, Search→Rate, 5× Search→Hotel,
  *    Search→Profile);
  *  - `recommend` — 3 calls (client→Recommendation→Rate→Profile);
  *  - `reserve`  — 3 calls (client→Reservation→Hotel→User).
  *
  * Entities are partitioned the way DeathStar shards its services: Geo,
  * Rate, Profile, Search and Recommendation by region; Hotel by hotel id;
  * User by username. Hop-count tests pin these numbers to the paper's.
  */
object HotelApp {

  private val hotelRef = TRef("Hotel")
  private val userRef  = TRef("User")

  /** Hotel entity: the unit of availability and rating. */
  val hotel: ClassDef = ClassDef(
    name = "Hotel",
    keyField = "hotel_id",
    fields = List(
      FieldDef("hotel_id", TStr, str("")),
      FieldDef("capacity", TInt, int(10)),
      FieldDef("reserved", TInt, int(0)),
      FieldDef("rate", TDouble, dbl(0.0)),
      FieldDef("price", TInt, int(100)),
      FieldDef("profile", TStr, str("")),
    ),
    methods = List(
      FunctionDef("check_availability", List("in_date" -> TInt, "out_date" -> TInt), TBool, List(
        Return(BinOp("<", FieldGet("reserved"), FieldGet("capacity"))),
      )),
      FunctionDef("reserve_room", List("in_date" -> TInt, "out_date" -> TInt), TBool, List(
        If(BinOp("<", FieldGet("reserved"), FieldGet("capacity")),
          List(
            SetField("reserved", BinOp("+", FieldGet("reserved"), Const(int(1)))),
            Return(Const(bool(true))),
          ),
          List(Return(Const(bool(false)))),
        ),
      )),
      FunctionDef("get_rate", Nil, TDouble, List(Return(FieldGet("rate")))),
      FunctionDef("get_price", Nil, TInt, List(Return(FieldGet("price")))),
      FunctionDef("get_profile", Nil, TStr, List(Return(FieldGet("profile")))),
      FunctionDef("get_reserved", Nil, TInt, List(Return(FieldGet("reserved")))),
    ),
  )

  /** Geo entity: the hotels near a region (DeathStar's geo service). */
  val geo: ClassDef = ClassDef(
    name = "Geo",
    keyField = "region",
    fields = List(
      FieldDef("region", TStr, str("")),
      FieldDef("hotels", TList(hotelRef), VList(hotelRef, Vector.empty)),
    ),
    methods = List(
      FunctionDef("nearby", Nil, TList(hotelRef), List(Return(FieldGet("hotels")))),
      FunctionDef("add_hotel", List("h" -> hotelRef), TUnit, List(
        SetField("hotels", Builtin("append", List(FieldGet("hotels"), Var("h")))),
      )),
    ),
  )

  /** Rate entity: rating service, keyed by region. It stores the region's
    * hotels pre-sorted by rating (DeathStar's rate service keeps a rate
    * plan index). */
  val rate: ClassDef = ClassDef(
    name = "Rate",
    keyField = "region",
    fields = List(
      FieldDef("region", TStr, str("")),
      FieldDef("by_rate", TList(hotelRef), VList(hotelRef, Vector.empty)),
    ),
    methods = List(
      // Returns the given candidates ordered by the region's rating index.
      FunctionDef("order_by_rate", List("hs" -> TList(hotelRef)), TList(hotelRef), List(
        Assign("out", TList(hotelRef), Const(VList(hotelRef, Vector.empty))),
        ForEach("r", hotelRef, FieldGet("by_rate"), List(
          If(Builtin("contains", List(Var("hs"), Var("r"))),
            List(SetVar("out", Builtin("append", List(Var("out"), Var("r"))))),
            Nil),
        )),
        Return(Var("out")),
      )),
      FunctionDef("top_rated", List("k" -> TInt), TList(hotelRef), List(
        Return(Builtin("slice", List(FieldGet("by_rate"), Const(int(0)), Var("k")))),
      )),
      FunctionDef("set_index", List("hs" -> TList(hotelRef)), TUnit, List(
        SetField("by_rate", Var("hs")),
      )),
    ),
  )

  /** Profile entity: hotel profile blobs for a region, answered in one
    * call (the paper's "one to get the profiles of the available hotels").
    * Profiles are stored alongside the hotel references so a single local
    * lookup resolves each requested hotel's blob. */
  val profile: ClassDef = ClassDef(
    name = "Profile",
    keyField = "region",
    fields = List(
      FieldDef("region", TStr, str("")),
      FieldDef("hotels", TList(hotelRef), VList(hotelRef, Vector.empty)),
      FieldDef("profiles", TList(TStr), VList(TStr, Vector.empty)),
    ),
    methods = List(
      FunctionDef("get_profiles", List("hs" -> TList(hotelRef)), TList(TStr), List(
        Assign("out", TList(TStr), Const(VList(TStr, Vector.empty))),
        ForEach("h", hotelRef, Var("hs"), List(
          Assign("i", TInt, Builtin("indexof", List(FieldGet("hotels"), Var("h")))),
          If(BinOp(">=", Var("i"), Const(int(0))),
            List(SetVar("out", Builtin("append",
              List(Var("out"), Builtin("get", List(FieldGet("profiles"), Var("i"))))))),
            Nil),
        )),
        Return(Var("out")),
      )),
      FunctionDef("set_profiles", List("hs" -> TList(hotelRef), "ps" -> TList(TStr)), TUnit, List(
        SetField("hotels", Var("hs")),
        SetField("profiles", Var("ps")),
      )),
    ),
  )

  /** Search orchestrator, keyed by region — the fan-out endpoint whose
    * for-loop over hotel availability is split by the compiler. */
  val search: ClassDef = ClassDef(
    name = "Search",
    keyField = "region",
    fields = List(FieldDef("region", TStr, str(""))),
    methods = List(
      FunctionDef("search", List("in_date" -> TInt, "out_date" -> TInt), TList(TStr), List(
        Assign("geo", TRef("Geo"), Builtin("ref", List(Const(str("Geo")), FieldGet("region")))),
        Assign("nearby", TList(hotelRef), RemoteCall(Var("geo"), "nearby", Nil)),
        Assign("rate", TRef("Rate"), Builtin("ref", List(Const(str("Rate")), FieldGet("region")))),
        Assign("ranked", TList(hotelRef), RemoteCall(Var("rate"), "order_by_rate", List(Var("nearby")))),
        Assign("top", TList(hotelRef), Builtin("slice", List(Var("ranked"), Const(int(0)), Const(int(5))))),
        Assign("avail", TList(hotelRef), Const(VList(hotelRef, Vector.empty))),
        ForEach("h", hotelRef, Var("top"), List(
          Assign("ok", TBool, RemoteCall(Var("h"), "check_availability",
            List(Var("in_date"), Var("out_date")))),
          If(Var("ok"),
            List(SetVar("avail", Builtin("append", List(Var("avail"), Var("h"))))),
            Nil),
        )),
        Assign("prof", TRef("Profile"), Builtin("ref", List(Const(str("Profile")), FieldGet("region")))),
        Assign("out", TList(TStr), RemoteCall(Var("prof"), "get_profiles", List(Var("avail")))),
        Return(Var("out")),
      )),
    ),
  )

  /** Recommendation entity, keyed by region (DeathStar recommends by rate,
    * distance, or price; the rate path is the hot one in the mixed
    * workload). */
  val recommendation: ClassDef = ClassDef(
    name = "Recommendation",
    keyField = "region",
    fields = List(FieldDef("region", TStr, str(""))),
    methods = List(
      FunctionDef("recommend", List("k" -> TInt), TList(TStr), List(
        Assign("rate", TRef("Rate"), Builtin("ref", List(Const(str("Rate")), FieldGet("region")))),
        Assign("best", TList(hotelRef), RemoteCall(Var("rate"), "top_rated", List(Var("k")))),
        Assign("prof", TRef("Profile"), Builtin("ref", List(Const(str("Profile")), FieldGet("region")))),
        Assign("out", TList(TStr), RemoteCall(Var("prof"), "get_profiles", List(Var("best")))),
        Return(Var("out")),
      )),
    ),
  )

  /** User entity: credentials and the user's reservations. */
  val user: ClassDef = ClassDef(
    name = "User",
    keyField = "username",
    fields = List(
      FieldDef("username", TStr, str("")),
      FieldDef("password", TStr, str("")),
      FieldDef("reservations", TList(hotelRef), VList(hotelRef, Vector.empty)),
    ),
    methods = List(
      FunctionDef("login", List("password" -> TStr), TBool, List(
        Return(BinOp("==", FieldGet("password"), Var("password"))),
      )),
      FunctionDef("add_reservation", List("h" -> hotelRef), TBool, List(
        SetField("reservations", Builtin("append", List(FieldGet("reservations"), Var("h")))),
        Return(Const(bool(true))),
      )),
      FunctionDef("reservation_count", Nil, TInt, List(
        Return(Builtin("len", List(FieldGet("reservations")))),
      )),
    ),
  )

  /** Reservation orchestrator, keyed by region. */
  val reservation: ClassDef = ClassDef(
    name = "Reservation",
    keyField = "region",
    fields = List(FieldDef("region", TStr, str(""))),
    methods = List(
      FunctionDef("reserve", List("u" -> userRef, "h" -> hotelRef,
                                  "in_date" -> TInt, "out_date" -> TInt), TBool, List(
        Assign("ok", TBool, RemoteCall(Var("h"), "reserve_room", List(Var("in_date"), Var("out_date")))),
        If(Var("ok"),
          List(Assign("added", TBool, RemoteCall(Var("u"), "add_reservation", List(Var("h"))))),
          Nil),
        Return(Var("ok")),
      )),
    ),
  )

  /** The full hotel application. */
  val program: Program = Program(List(
    hotel, geo, rate, profile, search, recommendation, user, reservation))

  // --------------------------------------------------------------- seeding

  /** Deterministic dataset: `nRegions` regions × `hotelsPerRegion` hotels,
    * plus `nUsers` users. Returns seeds consumable by every runtime. */
  def seeds(nRegions: Int, hotelsPerRegion: Int, nUsers: Int,
            capacity: Int = 10): Seq[(String, String, Map[String, Value])] = {
    val hotelSeeds = for {
      r <- 0 until nRegions
      i <- 0 until hotelsPerRegion
    } yield {
      val id = s"h-$r-$i"
      ("Hotel", id, Map[String, Value](
        "capacity" -> int(capacity),
        "reserved" -> int(0),
        "rate" -> dbl(hotelRate(i)),
        "price" -> int(80 + 7 * i % 200),
        "profile" -> str(s"profile-of-$id"),
      ))
    }
    val regionSeeds = (0 until nRegions).flatMap { r =>
      val region = s"reg-$r"
      val refs = (0 until hotelsPerRegion).map(i => ref("Hotel", s"h-$r-$i"))
      // rating index: hotels sorted by descending seeded rate (stable by id)
      val sorted = (0 until hotelsPerRegion).sortBy(i => -hotelRate(i)).map(refs)
      List(
        ("Geo", region, Map[String, Value]("hotels" -> VList(hotelRef, refs.toVector))),
        ("Rate", region, Map[String, Value]("by_rate" -> VList(hotelRef, sorted.toVector))),
        ("Profile", region, Map[String, Value](
          "hotels" -> VList(hotelRef, refs.toVector),
          "profiles" -> VList(TStr, refs.map(h => str(s"profile-of-${h.asRef.key}")).toVector))),
        ("Search", region, Map.empty[String, Value]),
        ("Recommendation", region, Map.empty[String, Value]),
        ("Reservation", region, Map.empty[String, Value]),
      )
    }
    val userSeeds = (0 until nUsers).map { u =>
      ("User", s"u-$u", Map[String, Value]("password" -> str(s"pw-$u")))
    }
    hotelSeeds ++ regionSeeds ++ userSeeds
  }

  /** Seeded rate of the `i`-th hotel of a region. */
  private def hotelRate(i: Int): Double = 5.0 - (i % 50) * 0.1

  // ------------------------------------------------------------- endpoints

  /** The four endpoints as (class, key, method, args) request builders. */
  def loginReq(user: String): (String, String, String, List[Value]) =
    ("User", user, "login", List(str(s"pw-${user.stripPrefix("u-")}")))

  def searchReq(region: String, inDate: Int, outDate: Int): (String, String, String, List[Value]) =
    ("Search", region, "search", List(int(inDate), int(outDate)))

  def recommendReq(region: String, k: Int = 3): (String, String, String, List[Value]) =
    ("Recommendation", region, "recommend", List(int(k)))

  def reserveReq(region: String, user: String, hotelId: String): (String, String, String, List[Value]) =
    ("Reservation", region, "reserve",
      List(ref("User", user), ref("Hotel", hotelId), int(1), int(3)))
}
