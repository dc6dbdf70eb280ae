package repro.core

import org.scalacheck.{Gen, Prop}
import repro.{PropSupport, SparkSpec}

/** Wire codec for entity-language values, environments, and events. */
class CodecSpec extends SparkSpec with PropSupport {
  import Value._

  // ------------------------------------------------------------ generators

  /** Any UTF-16 code unit, weighted towards the ones the escape loop
    * treats specially: quote, backslash, control characters, non-ASCII and
    * lone surrogates. */
  val genChar: Gen[Char] = Gen.frequency(
    4 -> Gen.asciiPrintableChar,
    1 -> Gen.oneOf('"', '\\', '/', '\n', '\r', '\t', '\b', '\f'),
    1 -> Gen.choose('\u0000', '\u001f'),
    1 -> Gen.choose('\u007f', '\uffff'),
    1 -> Gen.choose('\ud800', '\udfff'),
  )

  val genStr: Gen[String] = Gen.listOf(genChar).map(_.mkString)

  val genType: Gen[EType] = {
    val leaf = Gen.oneOf[EType](EType.TInt, EType.TDouble, EType.TBool, EType.TStr,
                                EType.TUnit, EType.TRef("User"), EType.TRef("It\"em\u00e9"))
    Gen.frequency(4 -> leaf, 1 -> leaf.map(EType.TList.apply))
  }

  def genValueOf(t: EType, depth: Int = 2): Gen[Value] = t match {
    case EType.TInt    => Gen.long.map(VInt.apply)
    case EType.TDouble => Gen.chooseNum(-1e12, 1e12).map(VDouble.apply)
    case EType.TBool   => Gen.oneOf(true, false).map(VBool.apply)
    case EType.TStr    => genStr.map(VStr.apply)
    case EType.TUnit   => Gen.const(VUnit)
    case EType.TRef(c) => genStr.map(k => VRef(c, k))
    case EType.TList(e) if depth > 0 =>
      Gen.listOfN(3, genValueOf(e, depth - 1)).map(xs => VList(e, xs.toVector))
    case EType.TList(e) => Gen.const(VList(e, Vector.empty))
    case EType.TInfer   => Gen.const(VUnit)
  }

  val genValue: Gen[Value] = genType.flatMap(t => genValueOf(t))

  val genEnv: Gen[Map[String, Value]] =
    Gen.mapOfN(4, Gen.zip(genStr, genValue))

  // ------------------------------------------------------------ tests

  test("scalar values round-trip") {
    val vs = List(int(0), int(-1), int(Long.MaxValue), dbl(3.25), dbl(-0.0),
                  bool(true), bool(false), str(""), str("héllo\n\"x\""), VUnit,
                  ref("User", "u-1"))
    vs.foreach(v => assert(Codec.decodeValue(Codec.encodeValue(v)) == v))
  }

  test("double NaN-free precision preserved via string encoding") {
    val v = dbl(0.1 + 0.2)
    assert(Codec.decodeValue(Codec.encodeValue(v)) == v)
  }

  test("lists carry their element type (empty list stays typed)") {
    val v = VList(EType.TRef("Item"), Vector.empty)
    val back = Codec.decodeValue(Codec.encodeValue(v))
    assert(back == v)
    assert(back.tpe == EType.TList(EType.TRef("Item")))
  }

  test("nested lists round-trip") {
    val inner = EType.TList(EType.TInt)
    val v = VList(inner, Vector(VList(EType.TInt, Vector(int(1), int(2))),
                                VList(EType.TInt, Vector.empty)))
    assert(Codec.decodeValue(Codec.encodeValue(v)) == v)
  }

  test("environment encoding is canonical (sorted keys)") {
    val e1 = Map("b" -> int(2), "a" -> int(1))
    val e2 = Map("a" -> int(1), "b" -> int(2))
    assert(Codec.encodeEnv(e1) == Codec.encodeEnv(e2))
  }

  test("environment round-trips") {
    val env = Map("x" -> int(5), "items" -> list(EType.TRef("Item"), ref("Item", "a")),
                  "ok" -> bool(true))
    assert(Codec.decodeEnv(Codec.encodeEnv(env)) == env)
  }

  test("types round-trip") {
    val ts = List(EType.TInt, EType.TDouble, EType.TBool, EType.TStr, EType.TUnit,
                  EType.TRef("X"), EType.TList(EType.TList(EType.TRef("Y"))), EType.TInfer)
    ts.foreach(t => assert(Codec.decodeValue(Codec.encodeValue(VList(t, Vector.empty))).tpe == EType.TList(t)))
  }

  test("property: arbitrary values round-trip") {
    checkProp(Prop.forAll(genValue) { v => Codec.decodeValue(Codec.encodeValue(v)) == v })
  }

  test("property: arbitrary environments round-trip") {
    checkProp(Prop.forAll(genEnv) { e => Codec.decodeEnv(Codec.encodeEnv(e)) == e })
  }

  test("property: re-encoding a decoded environment gives the same text") {
    checkProp(Prop.forAll(genEnv) { e =>
      val s = Codec.encodeEnv(e)
      Codec.encodeEnv(Codec.decodeEnv(s)) == s
    })
  }

  // ------------------------------------------------------------ wire format

  // One environment with every Value and EType case. The expected text is
  // the format's definition: stored states and event sizes depend on it.
  val goldenEnv: Map[String, Value] = Map(
    "int" -> int(-42),
    "dbl" -> dbl(-0.0),
    "big" -> dbl(1.0E20),
    "yes" -> bool(true),
    "str" -> str("a\"b\\c\nd\te\rf\u0001g\u00e9\ud83d"),
    "unit" -> VUnit,
    "ref" -> ref("Hotel", "h|1"),
    "nested" -> VList(EType.TList(EType.TInt), Vector(
      VList(EType.TInt, Vector(int(1), int(Long.MinValue))), VList(EType.TInt, Vector.empty))),
    "dbls" -> list(EType.TDouble, dbl(0.1)),
    "bools" -> list(EType.TBool, bool(false)),
    "strs" -> list(EType.TStr),
    "units" -> list(EType.TUnit, VUnit),
    "refs" -> list(EType.TRef("Item"), ref("Item", "i-9")),
    "infer" -> list(EType.TInfer),
    "Z" -> int(0),
  )

  val goldenEnvText: String =
    "{\"Z\":{\"t\":\"i\",\"v\":0},\"big\":{\"t\":\"d\",\"v\":\"1.0E20\"}," +
    "\"bools\":{\"t\":\"l\",\"e\":\"b\",\"v\":[{\"t\":\"b\",\"v\":false}]}," +
    "\"dbl\":{\"t\":\"d\",\"v\":\"-0.0\"}," +
    "\"dbls\":{\"t\":\"l\",\"e\":\"d\",\"v\":[{\"t\":\"d\",\"v\":\"0.1\"}]}," +
    "\"infer\":{\"t\":\"l\",\"e\":\"?\",\"v\":[]},\"int\":{\"t\":\"i\",\"v\":-42}," +
    "\"nested\":{\"t\":\"l\",\"e\":{\"l\":\"i\"},\"v\":[{\"t\":\"l\",\"e\":\"i\",\"v\":" +
    "[{\"t\":\"i\",\"v\":1},{\"t\":\"i\",\"v\":-9223372036854775808}]}," +
    "{\"t\":\"l\",\"e\":\"i\",\"v\":[]}]}," +
    "\"ref\":{\"t\":\"r\",\"c\":\"Hotel\",\"k\":\"h|1\"}," +
    "\"refs\":{\"t\":\"l\",\"e\":{\"r\":\"Item\"},\"v\":[{\"t\":\"r\",\"c\":\"Item\",\"k\":\"i-9\"}]}," +
    "\"str\":{\"t\":\"s\",\"v\":\"a\\\"b\\\\c\\nd\\te\\rf\\u0001g\u00e9\ud83d\"}," +
    "\"strs\":{\"t\":\"l\",\"e\":\"s\",\"v\":[]},\"unit\":{\"t\":\"u\"}," +
    "\"units\":{\"t\":\"l\",\"e\":\"u\",\"v\":[{\"t\":\"u\"}]},\"yes\":{\"t\":\"b\",\"v\":true}}"

  test("golden: an environment with every value and type case encodes to fixed text") {
    assert(Codec.encodeEnv(goldenEnv) == goldenEnvText)
    assert(Codec.decodeEnv(goldenEnvText) == goldenEnv)
  }

  test("malformed environments and values fail with IllegalArgumentException") {
    val bad = List(
      goldenEnvText.dropRight(1),                 // truncated
      goldenEnvText.take(goldenEnvText.length / 2),
      "",
      "{\"x\":{\"t\":\"q\",\"v\":1}}",              // unknown value tag
      "{\"x\":{\"t\":\"l\",\"e\":\"q\",\"v\":[]}}", // unknown type tag
      "{\"x\":{\"t\":\"i\",\"v\":1.5}}",            // not an integer
      goldenEnvText + " ",                        // trailing characters
      goldenEnvText + "{}",
    )
    bad.foreach(s => withClue(s)(intercept[IllegalArgumentException](Codec.decodeEnv(s))))
    val v = Codec.encodeValue(list(EType.TStr, str("a")))
    List(v.dropRight(1), v.take(5), "{\"t\":\"x\"}", v + "x", "{\"t\":\"b\",\"v\":maybe}")
      .foreach(s => withClue(s)(intercept[IllegalArgumentException](Codec.decodeValue(s))))
  }

  // ------------------------------------------------------------ typed state

  /** Every `EType`, nested lists and the compiler-internal `TInfer`
    * included. */
  val genFieldType: Gen[EType] =
    Gen.frequency(4 -> genType, 1 -> genType.map(EType.TList.apply), 1 -> Gen.const(EType.TInfer))

  /** A value stored in a field declared `t`: mostly one of exactly that
    * type, else one the tagged form must carry: an int widened into a
    * float (alone or as a list element), a `VUnit` default, or a value of
    * any other type (another list element type, another ref class). */
  def genFieldValue(t: EType): Gen[Value] = {
    val widened: Gen[Value] = t match {
      case EType.TDouble => Gen.long.map(VInt.apply)
      case EType.TList(EType.TDouble) =>
        Gen.listOfN(3, Gen.oneOf(Gen.long.map(VInt.apply), genValueOf(EType.TDouble)))
          .map(xs => VList(EType.TDouble, xs.toVector))
      case _ => genValueOf(t)
    }
    Gen.frequency(4 -> genValueOf(t), 1 -> widened, 1 -> Gen.const(VUnit), 1 -> genValue)
  }

  /** A class of arbitrary field types and a state for it, with one key the
    * class does not declare. */
  val genState: Gen[(Ast.ClassDef, Map[String, Value])] = for {
    names <- Gen.listOfN(5, genStr).map(_.distinct)
    types <- Gen.listOfN(names.size, genFieldType)
    values <- Gen.sequence[List[Value], Value](types.map(genFieldValue))
    extra <- Gen.zip(genStr, genValue)
  } yield {
    val cd = Ast.ClassDef("C", "id", names.zip(types).map { case (n, t) => Ast.FieldDef(n, t, Value.default(t)) }, Nil)
    (cd, Map(extra) ++ names.zip(values))
  }

  test("property: typed state round-trips over every field type, exact or not") {
    checkProp(Prop.forAll(genState) { case (cd, st) =>
      val s = Codec.encodeState(cd, st)
      Codec.decodeState(cd, s) == st && Codec.encodeState(cd, Codec.decodeState(cd, s)) == s
    })
  }

  import repro.deathstar.HotelApp

  val goldenHotel: Map[String, Value] = HotelApp.hotel.initialState("h-1-0") ++ Map(
    "reserved" -> int(2), "rate" -> dbl(4.5), "profile" -> str("profile-of-h-1-0"))
  val goldenHotelText: String =
    "{\"capacity\":10,\"hotel_id\":\"h-1-0\",\"price\":100,\"profile\":\"profile-of-h-1-0\"," +
    "\"rate\":\"4.5\",\"reserved\":2}"

  val goldenUser: Map[String, Value] = HotelApp.user.initialState("u-0") ++ Map(
    "password" -> str("pw-0"),
    "reservations" -> list(EType.TRef("Hotel"), ref("Hotel", "h-1-0"), ref("Hotel", "h-0-3")))
  val goldenUserText: String =
    "{\"password\":\"pw-0\",\"reservations\":[\"h-1-0\",\"h-0-3\"],\"username\":\"u-0\"}"

  test("golden: Hotel and User state encode to fixed typed text") {
    assert(Codec.encodeState(HotelApp.hotel, goldenHotel) == goldenHotelText)
    assert(Codec.decodeState(HotelApp.hotel, goldenHotelText) == goldenHotel)
    assert(Codec.encodeState(HotelApp.user, goldenUser) == goldenUserText)
    assert(Codec.decodeState(HotelApp.user, goldenUserText) == goldenUser)
    // Not exactly the declared type: written tagged.
    val widened = goldenHotel + ("rate" -> int(4)) + ("price" -> VUnit)
    val widenedText = goldenHotelText.replace("\"price\":100", "\"price\":{\"t\":\"u\"}")
      .replace("\"rate\":\"4.5\"", "\"rate\":{\"t\":\"i\",\"v\":4}")
    assert(Codec.encodeState(HotelApp.hotel, widened) == widenedText)
    assert(Codec.decodeState(HotelApp.hotel, widenedText) == widened)
  }

  test("malformed typed state fails with IllegalArgumentException") {
    val bad = List(
      goldenHotelText.dropRight(1),                      // truncated
      goldenHotelText.take(goldenHotelText.length / 2),
      "",
      goldenHotelText + " ",                             // trailing characters
      "{\"capacity\":\"10\"}",                           // a string where an int belongs
      "{\"capacity\":true}",
      "{\"reserved\":1.5}",
      "{\"rate\":4.5}",                                  // a float is quoted
      "{\"hotel_id\":h}",
      "{\"nope\":1}",                                    // undeclared fields are tagged
      "{\"capacity\":{\"t\":\"q\"}}",                    // bad tagged value
    )
    bad.foreach(s => withClue(s)(intercept[IllegalArgumentException](Codec.decodeState(HotelApp.hotel, s))))
    List("{\"reservations\":\"h-1-0\"}", "{\"reservations\":[\"h-1-0\",]}", "{\"reservations\":[1]}")
      .foreach(s => withClue(s)(intercept[IllegalArgumentException](Codec.decodeState(HotelApp.user, s))))
  }

  // ------------------------------------------------------------ events

  import Events._

  val genFrame: Gen[Frame] = for {
    c <- Gen.oneOf("User", "Item")
    k <- genStr
    m <- genStr
    b <- Gen.chooseNum(0, 20)
    e <- genEnv
    r <- genStr
  } yield Frame(EntityAddr(c, k), m, b, e, r)

  val genEvent: Gen[Event] = Gen.oneOf(
    for {
      rid <- genStr; seq <- Gen.chooseNum(0L, 100L)
      c <- Gen.oneOf("User", "Item"); k <- genStr
      m <- genStr; b <- Gen.chooseNum(-1, 20)
      env <- genEnv; stk <- Gen.listOfN(2, genFrame)
    } yield Invoke(rid, seq, EntityAddr(c, k), m, b, env, stk),
    for { rid <- genStr; v <- genValue } yield Reply(rid, v),
  )

  test("invoke event round-trips with stack and env") {
    val ev = Invoke("r1", 3, EntityAddr("User", "u1"), "checkout", -1,
      Map("item" -> ref("Item", "i9"), "amount" -> int(2)),
      List(Frame(EntityAddr("Search", "s"), "search", 4, Map("x" -> int(1)), "res")))
    assert(Events.decode(Events.encode(ev)) == ev)
  }

  test("reply event round-trips") {
    val ev = Reply("r2", list(EType.TStr, str("a"), str("b")))
    assert(Events.decode(Events.encode(ev)) == ev)
  }

  test("routing key round-trips; the key may contain the separator") {
    // The first '|' separates class and key, so a key may contain '|'.
    val a = EntityAddr("User", "x|y")
    assert(EntityAddr.fromRoutingKey(a.routingKey) == a)
    assert(EntityAddr.fromRoutingKey(EntityAddr("User", "plain").routingKey) ==
      EntityAddr("User", "plain"))
  }

  test("property: arbitrary events round-trip") {
    checkProp(Prop.forAll(genEvent) { ev => Events.decode(Events.encode(ev)) == ev })
  }

  val goldenInvoke: Invoke = Invoke("r\"1", 7L, EntityAddr("User", "u 1"), "reserve", 3,
    Map("x" -> int(1), "h" -> ref("Hotel", "h2")),
    List(Frame(EntityAddr("Frontend", "f"), "search", -1, Map("acc" -> list(EType.TStr, str("a"))), "res"),
         Frame(EntityAddr("Client", ""), "main", 0, Map.empty, "r")))

  val goldenInvokeText: String =
    "{\"t\":\"inv\",\"rid\":\"r\\\"1\",\"seq\":7,\"cls\":\"User\",\"key\":\"u 1\",\"m\":\"reserve\"," +
    "\"b\":3,\"env\":{\"h\":{\"t\":\"r\",\"c\":\"Hotel\",\"k\":\"h2\"},\"x\":{\"t\":\"i\",\"v\":1}}," +
    "\"stk\":[{\"c\":\"Frontend\",\"k\":\"f\",\"m\":\"search\",\"b\":-1," +
    "\"e\":{\"acc\":{\"t\":\"l\",\"e\":\"s\",\"v\":[{\"t\":\"s\",\"v\":\"a\"}]}},\"r\":\"res\"}," +
    "{\"c\":\"Client\",\"k\":\"\",\"m\":\"main\",\"b\":0,\"e\":{},\"r\":\"r\"}]}"

  val goldenReply: Reply = Reply("r2", list(EType.TRef("Hotel"), ref("Hotel", "h1")))

  val goldenReplyText: String =
    "{\"t\":\"rep\",\"rid\":\"r2\",\"v\":{\"t\":\"l\",\"e\":{\"r\":\"Hotel\"}," +
    "\"v\":[{\"t\":\"r\",\"c\":\"Hotel\",\"k\":\"h1\"}]}}"

  test("golden: invoke and reply events encode to fixed text") {
    assert(Events.encode(goldenInvoke) == goldenInvokeText)
    assert(Events.decode(goldenInvokeText) == goldenInvoke)
    assert(Events.encode(goldenReply) == goldenReplyText)
    assert(Events.decode(goldenReplyText) == goldenReply)
  }

  test("property: re-encoding a decoded event gives the same text") {
    checkProp(Prop.forAll(genEvent) { ev =>
      val s = Events.encode(ev)
      Events.encode(Events.decode(s)) == s
    })
  }

  test("malformed events fail with IllegalArgumentException") {
    val bad = List(
      goldenInvokeText.dropRight(1),                    // truncated
      goldenInvokeText.take(goldenInvokeText.length / 2),
      goldenReplyText.dropRight(3),
      "",
      goldenInvokeText.replace("\"inv\"", "\"call\""),    // unknown event tag
      goldenReplyText.replace("\"t\":\"r\"", "\"t\":\"z\""), // unknown value tag
      goldenInvokeText + "}",                           // trailing characters
      goldenReplyText + "\n",
    )
    bad.foreach(s => withClue(s)(intercept[IllegalArgumentException](Events.decode(s))))
  }
}
