package repro.core

import JsonText.{writeAll, writeString}

/** The event model (§2.2, Table 1).
  *
  * Table 1's mapping, realized:
  *  - Class                    → Operator           ([[Dataflow.OperatorDef]])
  *  - Object state             → Operator state     (field map, per key)
  *  - Function call arguments  → Event header       ([[Invoke]] env/method/block)
  *  - Return value             → Event payload      ([[Reply]] value / popped frame result)
  *
  * An [[Invoke]] event routes by `(target.clazz, target.key)` — the paper's
  * ingress "keyBy" on class name + entity key. The distributed call stack of
  * [[Frame]]s is the paper's *execution graph*: it records where to resume
  * (caller entity, method, continuation block), the suspended local
  * environment (intermediate results), and which variable receives the
  * callee's return value.
  */
object Events {

  /** Address of a stateful entity: the routing key of the dataflow. */
  final case class EntityAddr(clazz: String, key: String) {
    /** Canonical routing key used by every runtime's partitioner. */
    def routingKey: String = s"$clazz|$key"
  }
  object EntityAddr {
    def fromRoutingKey(s: String): EntityAddr = {
      val i = s.indexOf('|')
      require(i > 0, s"bad routing key: $s")
      EntityAddr(s.substring(0, i), s.substring(i + 1))
    }
  }

  /** One suspended caller on the distributed call stack. `env` is the
    * caller's variables when it suspended, under its method's layout. */
  final case class Frame(
      caller: EntityAddr,
      method: String,
      contBlock: Int,
      env: Env,
      resultVar: String,
  )
  /** Frames and events built by hand (tests, tools) may give their env as
    * (name, value) pairs. */
  object Frame {
    def apply(caller: EntityAddr, method: String, contBlock: Int, env: Iterable[(String, Value)],
              resultVar: String): Frame = Frame(caller, method, contBlock, Env(env.toMap), resultVar)
  }

  sealed trait Event {
    def requestId: String
  }

  /** Function-invocation (or resumption) event. `block` is the state-machine
    * block to start at — the method entry for a fresh call, a continuation
    * block when a remote call's result comes back (then `env` already
    * contains the result bound to the caller's result variable). `env` is
    * under the target method's variable layout when a step built it, and
    * under a layout of just its names when it was decoded. */
  final case class Invoke(
      requestId: String,
      seq: Long,
      target: EntityAddr,
      method: String,
      block: Int,
      env: Env,
      stack: List[Frame],
  ) extends Event
  object Invoke {
    def apply(requestId: String, seq: Long, target: EntityAddr, method: String, block: Int,
              env: Iterable[(String, Value)], stack: List[Frame]): Invoke =
      Invoke(requestId, seq, target, method, block, Env(env.toMap), stack)
  }

  /** Egress event: the outermost call returned `value` to the client. */
  final case class Reply(requestId: String, value: Value) extends Event

  // ------------------------------------------------------------- wire codec
  //
  // An Invoke is {"t":"inv","rid":..,"seq":..,"cls":..,"key":..,"m":..,
  // "b":..,"env":{..},"stk":[frame,..]}, a frame {"c":..,"k":..,"m":..,
  // "b":..,"e":{..},"r":..}, and a Reply {"t":"rep","rid":..,"v":value}, all
  // written and read by Codec's writer and reader.

  def encode(ev: Event): String = {
    val sb = new StringBuilder
    ev match {
      case Invoke(rid, seq, t, m, b, env, stack) =>
        sb ++= "{\"t\":\"inv\",\"rid\":"; writeString(rid, sb)
        sb ++= ",\"seq\":"; sb.append(seq)
        sb ++= ",\"cls\":"; writeString(t.clazz, sb)
        sb ++= ",\"key\":"; writeString(t.key, sb)
        sb ++= ",\"m\":"; writeString(m, sb)
        sb ++= ",\"b\":"; sb.append(b)
        sb ++= ",\"env\":"; Codec.writeEnv(env, sb)
        sb ++= ",\"stk\":["
        writeAll(stack, sb)(writeFrame(_, sb))
        sb ++= "]}"
      case Reply(rid, v) =>
        sb ++= "{\"t\":\"rep\",\"rid\":"; writeString(rid, sb)
        sb ++= ",\"v\":"; Codec.writeValue(v, sb)
        sb += '}'
    }
    sb.toString
  }

  private def writeFrame(f: Frame, sb: StringBuilder): Unit = {
    sb ++= "{\"c\":"; writeString(f.caller.clazz, sb)
    sb ++= ",\"k\":"; writeString(f.caller.key, sb)
    sb ++= ",\"m\":"; writeString(f.method, sb)
    sb ++= ",\"b\":"; sb.append(f.contBlock)
    sb ++= ",\"e\":"; Codec.writeEnv(f.env, sb)
    sb ++= ",\"r\":"; writeString(f.resultVar, sb)
    sb += '}'
  }

  // Arguments are evaluated left to right, so each constructor below reads
  // its fields in the order the writer wrote them.
  def decode(s: String): Event = {
    val r = new Codec.Reader(s)
    val ev = r.str("{\"t\":") match {
      case "inv" =>
        Invoke(r.str(",\"rid\":"), r.num(",\"seq\":"), EntityAddr(r.str(",\"cls\":"), r.str(",\"key\":")),
          r.str(",\"m\":"), r.num(",\"b\":").toInt, { r.lit(",\"env\":"); r.env() }, {
            r.lit(",\"stk\":[")
            val stack = List.newBuilder[Frame]
            r.items(']')(stack += readFrame(r))
            stack.result()
          })
      case "rep" => Reply(r.str(",\"rid\":"), { r.lit(",\"v\":"); r.value() })
      case t     => r.fail(s"bad event tag $t")
    }
    r.expect('}')
    r.end()
    ev
  }

  private def readFrame(r: Codec.Reader): Frame = {
    val f = Frame(EntityAddr(r.str("{\"c\":"), r.str(",\"k\":")), r.str(",\"m\":"), r.num(",\"b\":").toInt,
      { r.lit(",\"e\":"); r.env() }, r.str(",\"r\":"))
    r.expect('}')
    f
  }
}
