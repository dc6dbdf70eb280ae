package repro.core

/** JSON text primitives shared by `Json` and `Codec`: the one string escape
  * loop (`writeString`) and a cursor over the text whose `string()` is the
  * one unescape loop. Malformed text fails with `IllegalArgumentException`,
  * whose message is built only when it is thrown.
  */
private[core] object JsonText {

  def writeString(s: String, sb: StringBuilder): Unit = {
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

  /** Writes `xs` separated by commas. */
  def writeAll[A](xs: IterableOnce[A], sb: StringBuilder)(write: A => Unit): Unit = {
    var first = true
    xs.iterator.foreach { x => if (!first) sb += ','; first = false; write(x) }
  }

  class Cursor(protected val s: String) {
    var pos = 0
    def eof: Boolean = pos >= s.length
    def skipWs(): Unit = while (!eof && s.charAt(pos).isWhitespace) pos += 1
    def fail(what: String): Nothing = throw new IllegalArgumentException(s"$what at $pos in: $s")
    // End of input is a parse error; the message is built only when thrown.
    def ch: Char =
      if (pos < s.length) s.charAt(pos)
      else throw new IllegalArgumentException(s"unexpected end of input in: $s")
    def expect(c: Char): Unit = {
      if (ch != c) fail(s"expected '$c'")
      pos += 1
    }
    def lit(l: String): Unit = {
      if (!s.regionMatches(pos, l, 0, l.length)) fail(s"expected $l")
      pos += l.length
    }
    /** Reads the comma-separated elements of a list or object up to and
      * including `close`, calling `item` for each. */
    def items(close: Char)(item: => Unit): Unit =
      if (ch == close) pos += 1
      else while ({ item; more(close) }) ()
    private def more(close: Char): Boolean = {
      val c = ch
      if (c != ',' && c != close) fail(s"expected ',' or '$close'")
      pos += 1
      c == ','
    }
    /** Fails unless the whole text was read. */
    def end(): Unit = if (!eof) fail("trailing characters")

    /** A string literal. A run with no escape is returned as one substring;
      * from the first backslash on, the escape loop builds it. */
    def string(): String = {
      expect('"')
      val start = pos
      while (pos < s.length && s.charAt(pos) != '"' && s.charAt(pos) != '\\') pos += 1
      if (ch == '"') { pos += 1; return s.substring(start, pos - 1) }
      val sb = new StringBuilder(pos - start + 16)
      sb.underlying.append(s, start, pos)
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
  }
}

/** A JSON tree with its renderer and parser, for the hand-written baseline
  * services (`BaselineHotel`), which exchange JSON documents. The entity
  * runtimes' wire format is `Codec`, which writes and reads text directly.
  */
object Json {
  sealed trait J
  final case class JStr(v: String) extends J
  final case class JNum(v: Double) extends J
  /** Integers without a decimal point, rendered exactly. */
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
    case JStr(v)  => JsonText.writeString(v, sb)
    case JNum(v)  =>
      if (v.isNaN || v.isInfinite) { sb ++= "\"" ++= v.toString ++= "\"" }
      else sb ++= (if (v == math.rint(v) && math.abs(v) < 1e15) s"${v.toLong}.0" else v.toString)
    case JInt(v)  => sb ++= v.toString
    case JBool(v) => sb ++= v.toString
    case JNull    => sb ++= "null"
    case JArr(xs) =>
      sb += '['
      JsonText.writeAll(xs, sb)(renderTo(_, sb))
      sb += ']'
    case JObj(fs) =>
      sb += '{'
      JsonText.writeAll(fs, sb) { case (k, v) => JsonText.writeString(k, sb); sb += ':'; renderTo(v, sb) }
      sb += '}'
  }

  /** Recursive-descent parser for the subset this renderer emits (full JSON
    * minus exponents-with-plus corner cases it never produces). */
  def parse(s: String): J = {
    val p = new Parser(s)
    val j = p.value()
    p.skipWs()
    p.end()
    j
  }

  private final class Parser(text: String) extends JsonText.Cursor(text) {
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
      skipWs()
      val buf = Vector.newBuilder[J]
      items(']') { buf += value(); skipWs() }
      JArr(buf.result())
    }

    private def obj(): J = {
      expect('{')
      skipWs()
      val buf = Vector.newBuilder[(String, J)]
      items('}') {
        skipWs()
        val k = string()
        skipWs(); expect(':')
        buf += (k -> value())
        skipWs()
      }
      JObj(buf.result())
    }
  }
}

/** Wire codec for entity-language values and state maps; `Events` encodes
  * events on the same writer and reader.
  *
  * Events and operator state cross runtime boundaries (Spark shuffles, the
  * FaaS KV store), so everything a runtime moves is JSON text. Values are
  * written straight into one `StringBuilder` and read straight off the text
  * with one cursor; no intermediate tree is built. The format:
  *
  *  - a value is `{"t":tag,...}`: `{"t":"i","v":-1}`, `{"t":"d","v":"0.5"}`
  *    (the `Double.toString` text), `{"t":"b","v":true}`,
  *    `{"t":"s","v":"..."}`, `{"t":"u"}`, `{"t":"l","e":type,"v":[...]}`
  *    and `{"t":"r","c":"Class","k":"key"}`;
  *  - a type is `"i"`, `"d"`, `"b"`, `"s"`, `"u"`, `"?"`, `{"l":type}` or
  *    `{"r":"Class"}`;
  *  - an environment is an object of values with its keys sorted, so equal
  *    maps encode to equal text;
  *  - entity state ([[encodeState]]) is an object like an environment, but
  *    each field is written under its declared type, untagged: an int,
  *    bool or string bare, a float as its quoted `Double.toString` text, a
  *    `TRef(c)` as just its key and a list as a bare array of its elements,
  *    each written the same way under the element type. A value whose
  *    runtime type is not exactly the declared one (an int widened into a
  *    float, a `VUnit` default, a list with another element type, a field
  *    the class does not declare) is written tagged. A tagged value starts
  *    with `{` and no untagged one does, so the reader tells them apart by
  *    their first character.
  *
  * The reader accepts exactly what the writer produces (fixed key order, no
  * whitespace); anything else fails with `IllegalArgumentException`.
  */
object Codec {
  import JsonText.{writeAll, writeString}

  private val typeTags: Map[EType, String] = Map(EType.TInt -> "i", EType.TDouble -> "d",
    EType.TBool -> "b", EType.TStr -> "s", EType.TUnit -> "u", EType.TInfer -> "?")
  private val tagTypes: Map[String, EType] = typeTags.map(_.swap)

  // ------------------------------------------------------------ writer

  private def writeType(t: EType, sb: StringBuilder): Unit = t match {
    case EType.TList(e) => sb ++= "{\"l\":"; writeType(e, sb); sb += '}'
    case EType.TRef(c)  => sb ++= "{\"r\":"; writeString(c, sb); sb += '}'
    case _              => sb += '"' ++= typeTags(t) += '"'
  }

  private[core] def writeValue(v: Value, sb: StringBuilder): Unit = v match {
    case Value.VInt(i)      => sb ++= "{\"t\":\"i\",\"v\":"; sb.append(i); sb += '}'
    case Value.VDouble(d)   => sb ++= "{\"t\":\"d\",\"v\":\""; sb ++= java.lang.Double.toString(d); sb ++= "\"}"
    case Value.VBool(b)     => sb ++= "{\"t\":\"b\",\"v\":"; sb ++= (if (b) "true" else "false"); sb += '}'
    case Value.VStr(s)      => sb ++= "{\"t\":\"s\",\"v\":"; writeString(s, sb); sb += '}'
    case Value.VUnit        => sb ++= "{\"t\":\"u\"}"
    case Value.VList(e, xs) =>
      sb ++= "{\"t\":\"l\",\"e\":"; writeType(e, sb); sb ++= ",\"v\":["
      writeAll(xs, sb)(writeValue(_, sb))
      sb ++= "]}"
    case Value.VRef(c, k)   =>
      sb ++= "{\"t\":\"r\",\"c\":"; writeString(c, sb); sb ++= ",\"k\":"; writeString(k, sb); sb += '}'
  }

  /** Untagged when `v`'s runtime type is exactly `t`, tagged otherwise. */
  private def writeTyped(t: EType, v: Value, sb: StringBuilder): Unit = v match {
    case Value.VInt(i) if t == EType.TInt       => sb.append(i)
    case Value.VDouble(d) if t == EType.TDouble => sb += '"' ++= java.lang.Double.toString(d) += '"'
    case Value.VBool(b) if t == EType.TBool     => sb ++= (if (b) "true" else "false")
    case Value.VStr(s) if t == EType.TStr       => writeString(s, sb)
    case Value.VRef(c, k) if t == EType.TRef(c) => writeString(k, sb)
    case Value.VList(e, xs) if t == EType.TList(e) =>
      sb += '['
      writeAll(xs, sb)(writeTyped(e, _, sb))
      sb += ']'
    case _ => writeValue(v, sb)
  }

  /** An object of the bound slots of `env`, in slot order, which is key
    * order; `write(i, v)` writes the value `v` of slot `i`. */
  private def writeObject(env: Env, sb: StringBuilder)(write: (Int, Value) => Unit): Unit = {
    val names = env.layout.names
    val vs = env.values
    sb += '{'
    var first = true
    var i = 0
    while (i < vs.length) {
      val v = vs(i)
      if (v != null) {
        if (!first) sb += ','
        first = false
        writeString(names(i), sb); sb += ':'; write(i, v)
      }
      i += 1
    }
    sb += '}'
  }

  private[core] def writeEnv(env: Env, sb: StringBuilder): Unit =
    writeObject(env, sb)((_, v) => writeValue(v, sb))

  // ------------------------------------------------------------ reader

  /** Reads what the writer wrote; `str` and `num` read a value after the
    * literal text `before` (a key with its separators). */
  private[core] final class Reader(text: String) extends JsonText.Cursor(text) {

    def long(): Long = {
      val start = pos
      if (ch == '-') pos += 1
      while (!eof && ch >= '0' && ch <= '9') pos += 1
      java.lang.Long.parseLong(s, start, pos, 10)
    }

    def str(before: String): String = { lit(before); string() }
    def num(before: String): Long   = { lit(before); long() }

    def tpe(): EType =
      if (s.startsWith("{\"l\":", pos)) { pos += 5; val e = tpe(); expect('}'); EType.TList(e) }
      else if (ch == '{') { val c = str("{\"r\":"); expect('}'); EType.TRef(c) }
      else { val t = string(); tagTypes.getOrElse(t, fail(s"bad type tag $t")) }

    def value(): Value = {
      lit("{\"t\":\"")
      val tag = ch
      pos += 1
      val v = tag match {
        case 'i' => Value.VInt(num("\",\"v\":"))
        case 'd' => Value.VDouble(java.lang.Double.parseDouble(str("\",\"v\":")))
        case 'b' => lit("\",\"v\":"); Value.VBool(if (ch == 't') { lit("true"); true } else { lit("false"); false })
        case 's' => Value.VStr(str("\",\"v\":"))
        case 'u' => expect('"'); Value.VUnit
        case 'l' =>
          lit("\",\"e\":")
          val e = tpe()
          lit(",\"v\":[")
          val xs = Vector.newBuilder[Value]
          items(']')(xs += value())
          Value.VList(e, xs.result())
        case 'r' => Value.VRef(str("\",\"c\":"), str(",\"k\":"))
        case _   => fail(s"bad value tag $tag")
      }
      expect('}')
      v
    }

    /** A value `writeTyped` wrote under `t`. */
    def typed(t: EType): Value =
      if (ch == '{') value()
      else t match {
        case EType.TInt    => Value.VInt(long())
        case EType.TDouble => Value.VDouble(java.lang.Double.parseDouble(string()))
        case EType.TBool   => Value.VBool(if (ch == 't') { lit("true"); true } else { lit("false"); false })
        case EType.TStr    => Value.VStr(string())
        case EType.TRef(c) => Value.VRef(c, string())
        case EType.TList(e) =>
          expect('[')
          val xs = Vector.newBuilder[Value]
          items(']')(xs += typed(e))
          Value.VList(e, xs.result())
        case _ => fail(s"expected a tagged ${t.render}")
      }

    /** An object whose value under key `k` is read by `read(k)`. */
    def obj(read: String => Value): Env = {
      expect('{')
      val names = Array.newBuilder[String]
      val values = Array.newBuilder[Value]
      items('}') {
        val k = string()
        expect(':')
        names += k
        values += read(k)
      }
      Env.read(names.result(), values.result())
    }

    def env(): Env = obj(_ => value())

    /** An object of `layout`'s names read into an array under it; `read(i)`
      * reads the value of slot `i`. A name without a slot fails. */
    def fields(layout: Layout)(read: Int => Value): Array[Value] = {
      val a = new Array[Value](layout.size)
      expect('{')
      items('}') {
        val k = string()
        val i = layout.slotOf(k)
        if (i < 0) fail(s"undeclared field $k")
        expect(':')
        a(i) = read(i)
      }
      a
    }
  }

  // ------------------------------------------------------------ entry points

  def encodeValue(v: Value): String = { val sb = new StringBuilder; writeValue(v, sb); sb.toString }

  def decodeValue(s: String): Value = { val r = new Reader(s); val v = r.value(); r.end(); v }

  /** Encode a variable environment or entity field map. Keys sorted so the
    * encoding is canonical (stable across runtimes and test re-runs). */
  def encodeEnv(env: Map[String, Value]): String = encodeEnv(Env(env))

  /** The same text for an env, or an entity's field array under its
    * class layout. */
  def encodeEnv(env: Env): String = { val sb = new StringBuilder; writeEnv(env, sb); sb.toString }

  def decodeEnv(s: String): Map[String, Value] = readEnv(s).toMap

  def readEnv(s: String): Env = { val r = new Reader(s); val e = r.env(); r.end(); e }

  /** Encode an entity's field map under class `cd`'s declared field types
    * (the typed state format above). Canonical like [[encodeEnv]]. */
  def encodeState(cd: Ast.ClassDef, fields: Map[String, Value]): String = {
    val env = Env(fields)
    val types = env.layout.names.map(cd.fieldTypes.getOrElse(_, null))
    writeState(env, types)
  }

  /** The same text for an entity's field array under `cd`'s layout. */
  def encodeState(cd: Ast.ClassDef, fields: Array[Value]): String =
    writeState(new Env(cd.layout, fields), cd.slotTypes)

  /** Each bound slot `i` written under `types(i)`, tagged where that is
    * null. */
  private def writeState(env: Env, types: Array[EType]): String = {
    val sb = new StringBuilder
    writeObject(env, sb) { (i, v) =>
      if (types(i) == null) writeValue(v, sb) else writeTyped(types(i), v, sb)
    }
    sb.toString
  }

  def decodeState(cd: Ast.ClassDef, s: String): Map[String, Value] = {
    val r = new Reader(s)
    val st = r.obj(k => cd.fieldTypes.get(k).fold(r.value())(r.typed))
    r.end()
    st.toMap
  }

  /** Typed state text read into an array under `cd`'s layout; a field the
    * class does not declare fails. */
  def decodeFields(cd: Ast.ClassDef, s: String): Array[Value] = {
    val r = new Reader(s)
    val a = r.fields(cd.layout)(i => r.typed(cd.slotTypes(i)))
    r.end()
    a
  }
}
