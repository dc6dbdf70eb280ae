package repro.core

import scala.collection.mutable

/** Self-contained JSON codec.
  *
  * Events and operator state must cross runtime boundaries (Spark shuffles,
  * the simulated Kafka log, the FaaS KV store), so everything the runtime
  * moves is encoded as JSON strings via this module. Hand-rolled rather than
  * Jackson so the wire format is fully specified here and round-trip tested
  * with ScalaCheck.
  */
object Json {
  sealed trait J
  final case class JStr(v: String) extends J
  final case class JNum(v: Double) extends J
  /** Longs are carried as strings inside a tagged object by the Value codec;
    * JInt exists for exact integer rendering of small counts. */
  final case class JInt(v: Long) extends J
  final case class JBool(v: Boolean) extends J
  case object JNull extends J
  final case class JArr(items: Vector[J]) extends J
  final case class JObj(fields: Vector[(String, J)]) extends J {
    lazy val map: Map[String, J] = fields.toMap
    def apply(k: String): J = map.getOrElse(k, throw new NoSuchElementException(s"no key $k in $this"))
    def get(k: String): Option[J] = map.get(k)
  }

  object JObj { def of(fs: (String, J)*): JObj = JObj(fs.toVector) }

  def render(j: J): String = {
    val sb = new StringBuilder
    renderTo(j, sb)
    sb.toString
  }

  private def renderTo(j: J, sb: StringBuilder): Unit = j match {
    case JStr(v)  => renderString(v, sb)
    case JNum(v)  =>
      if (v.isNaN || v.isInfinite) { sb ++= "\"" ++= v.toString ++= "\"" }
      else sb ++= (if (v == math.rint(v) && math.abs(v) < 1e15) s"${v.toLong}.0" else v.toString)
    case JInt(v)  => sb ++= v.toString
    case JBool(v) => sb ++= v.toString
    case JNull    => sb ++= "null"
    case JArr(xs) =>
      sb += '['
      var first = true
      xs.foreach { x => if (!first) sb += ','; first = false; renderTo(x, sb) }
      sb += ']'
    case JObj(fs) =>
      sb += '{'
      var first = true
      fs.foreach { case (k, v) =>
        if (!first) sb += ','
        first = false
        renderString(k, sb); sb += ':'; renderTo(v, sb)
      }
      sb += '}'
  }

  private def renderString(s: String, sb: StringBuilder): Unit = {
    sb += '"'
    s.foreach {
      case '"'  => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case '\n' => sb ++= "\\n"
      case '\r' => sb ++= "\\r"
      case '\t' => sb ++= "\\t"
      case c if c < 0x20 => sb ++= f"\\u${c.toInt}%04x"
      case c    => sb += c
    }
    sb += '"'
  }

  /** Recursive-descent parser for the subset this codec emits (full JSON
    * minus exponents-with-plus corner cases it never produces). */
  def parse(s: String): J = {
    val p = new Parser(s)
    val j = p.value()
    p.skipWs()
    require(p.eof, s"trailing characters at ${p.pos} in: $s")
    j
  }

  private final class Parser(s: String) {
    var pos = 0
    def eof: Boolean = pos >= s.length
    def skipWs(): Unit = while (!eof && s.charAt(pos).isWhitespace) pos += 1
    // End of input is a parse error; the message is built only when thrown.
    private def ch: Char =
      if (pos < s.length) s.charAt(pos)
      else throw new IllegalArgumentException(s"unexpected end of input in: $s")
    private def expect(c: Char): Unit = {
      require(!eof && ch == c, s"expected '$c' at $pos in: $s")
      pos += 1
    }

    def value(): J = {
      skipWs()
      ch match {
        case '"' => JStr(string())
        case '{' => obj()
        case '[' => arr()
        case 't' => lit("true"); JBool(true)
        case 'f' => lit("false"); JBool(false)
        case 'n' => lit("null"); JNull
        case _   => number()
      }
    }

    private def lit(l: String): Unit = {
      require(s.regionMatches(pos, l, 0, l.length), s"bad literal at $pos in: $s")
      pos += l.length
    }

    private def string(): String = {
      expect('"')
      val sb = new StringBuilder
      while (ch != '"') {
        if (ch == '\\') {
          pos += 1
          ch match {
            case '"'  => sb += '"'
            case '\\' => sb += '\\'
            case '/'  => sb += '/'
            case 'n'  => sb += '\n'
            case 'r'  => sb += '\r'
            case 't'  => sb += '\t'
            case 'b'  => sb += '\b'
            case 'f'  => sb += '\f'
            case 'u'  =>
              if (pos + 5 > s.length)
                throw new IllegalArgumentException(s"truncated \\u escape at $pos in: $s")
              sb += Integer.parseInt(s.substring(pos + 1, pos + 5), 16).toChar
              pos += 4
            case c    => throw new IllegalArgumentException(s"bad escape \\$c")
          }
          pos += 1
        } else { sb += ch; pos += 1 }
      }
      pos += 1
      sb.toString
    }

    private def number(): J = {
      val start = pos
      if (!eof && (ch == '-' || ch == '+')) pos += 1
      while (!eof && (ch.isDigit || ch == '.' || ch == 'e' || ch == 'E' || ch == '-' || ch == '+')) pos += 1
      val tok = s.substring(start, pos)
      if (tok.contains('.') || tok.contains('e') || tok.contains('E')) JNum(tok.toDouble)
      else JInt(tok.toLong)
    }

    private def arr(): J = {
      expect('[')
      val buf = Vector.newBuilder[J]
      skipWs()
      if (ch == ']') { pos += 1; return JArr(Vector.empty) }
      var done = false
      while (!done) {
        buf += value()
        skipWs()
        if (ch == ',') { pos += 1 } else { expect(']'); done = true }
      }
      JArr(buf.result())
    }

    private def obj(): J = {
      expect('{')
      val buf = Vector.newBuilder[(String, J)]
      skipWs()
      if (ch == '}') { pos += 1; return JObj(Vector.empty) }
      var done = false
      while (!done) {
        skipWs()
        val k = string()
        skipWs(); expect(':')
        buf += (k -> value())
        skipWs()
        if (ch == ',') { pos += 1 } else { expect('}'); done = true }
      }
      JObj(buf.result())
    }
  }
}

/** Wire codec for entity-language types, values, and state maps. */
object Codec {
  import Json._

  // ------------------------------------------------------------ types

  def typeToJson(t: EType): J = t match {
    case EType.TInt     => JStr("i")
    case EType.TDouble  => JStr("d")
    case EType.TBool    => JStr("b")
    case EType.TStr     => JStr("s")
    case EType.TUnit    => JStr("u")
    case EType.TList(e) => JObj.of("l" -> typeToJson(e))
    case EType.TRef(c)  => JObj.of("r" -> JStr(c))
    case EType.TInfer   => JStr("?")
  }

  def typeFromJson(j: J): EType = j match {
    case JStr("i") => EType.TInt
    case JStr("d") => EType.TDouble
    case JStr("b") => EType.TBool
    case JStr("s") => EType.TStr
    case JStr("u") => EType.TUnit
    case JStr("?") => EType.TInfer
    case o: JObj if o.get("l").isDefined => EType.TList(typeFromJson(o("l")))
    case o: JObj if o.get("r").isDefined => EType.TRef(o("r").asInstanceOf[JStr].v)
    case other => throw new IllegalArgumentException(s"bad type json: $other")
  }

  // ------------------------------------------------------------ values

  def valueToJson(v: Value): J = v match {
    case Value.VInt(i)       => JObj.of("t" -> JStr("i"), "v" -> JInt(i))
    case Value.VDouble(d)    => JObj.of("t" -> JStr("d"), "v" -> JStr(java.lang.Double.toString(d)))
    case Value.VBool(b)      => JObj.of("t" -> JStr("b"), "v" -> JBool(b))
    case Value.VStr(s)       => JObj.of("t" -> JStr("s"), "v" -> JStr(s))
    case Value.VUnit         => JObj.of("t" -> JStr("u"))
    case Value.VList(e, xs)  => JObj.of("t" -> JStr("l"), "e" -> typeToJson(e),
                                        "v" -> JArr(xs.map(valueToJson)))
    case Value.VRef(c, k)    => JObj.of("t" -> JStr("r"), "c" -> JStr(c), "k" -> JStr(k))
  }

  def valueFromJson(j: J): Value = {
    val o = j.asInstanceOf[JObj]
    o("t").asInstanceOf[JStr].v match {
      case "i" => Value.VInt(o("v").asInstanceOf[JInt].v)
      case "d" => Value.VDouble(o("v").asInstanceOf[JStr].v.toDouble)
      case "b" => Value.VBool(o("v").asInstanceOf[JBool].v)
      case "s" => Value.VStr(o("v").asInstanceOf[JStr].v)
      case "u" => Value.VUnit
      case "l" => Value.VList(typeFromJson(o("e")),
                              o("v").asInstanceOf[JArr].items.map(valueFromJson))
      case "r" => Value.VRef(o("c").asInstanceOf[JStr].v, o("k").asInstanceOf[JStr].v)
      case t   => throw new IllegalArgumentException(s"bad value tag $t")
    }
  }

  def encodeValue(v: Value): String  = render(valueToJson(v))
  def decodeValue(s: String): Value  = valueFromJson(parse(s))

  // ----------------------------------------------------- environments/state

  /** Encode a variable environment or entity field map. Keys sorted so the
    * encoding is canonical (stable across runtimes and test re-runs). */
  def envToJson(env: Map[String, Value]): J =
    JObj(env.toVector.sortBy(_._1).map { case (k, v) => k -> valueToJson(v) })

  def envFromJson(j: J): Map[String, Value] = {
    val o = j.asInstanceOf[JObj]
    val b = mutable.Map.empty[String, Value]
    o.fields.foreach { case (k, v) => b(k) = valueFromJson(v) }
    b.toMap
  }

  def encodeEnv(env: Map[String, Value]): String = render(envToJson(env))
  def decodeEnv(s: String): Map[String, Value]   = envFromJson(parse(s))
}
