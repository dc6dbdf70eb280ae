package repro.core

import scala.collection.mutable
import Ast._

/** Direct (unsplit) reference interpreter.
  *
  * Executes the original object-oriented program with *synchronous* remote
  * calls — the semantics the programmer wrote, before any splitting. Every
  * distributed runtime is differential-tested against this interpreter: for
  * a sequential request stream, the split dataflow execution must produce
  * identical return values and identical final entity state.
  */
final class Interpreter(val program: Program) {

  /** All entity state: (class, key) -> field map. */
  private val state = mutable.Map.empty[(String, String), mutable.Map[String, Value]]

  /** Hop counter: number of (possibly remote) entity-to-entity calls made,
    * including the client's initial call. Used to cross-check the hop
    * traces the distributed runtimes produce. */
  var calls: Long = 0L

  /** Field map of an entity, created from field defaults on first touch. */
  def entity(clazz: String, key: String): mutable.Map[String, Value] =
    state.getOrElseUpdate((clazz, key), {
      val cd = program.clazz(clazz)
      val m = mutable.Map.empty[String, Value]
      cd.fields.foreach(f => m(f.name) = f.init)
      m(cd.keyField) = Value.VStr(key)
      m
    })

  /** Overwrite an entity's fields (workload seeding, like a DB load). */
  def seed(clazz: String, key: String, fields: Map[String, Value]): Unit = {
    val m = entity(clazz, key)
    fields.foreach { case (k, v) => m(k) = v }
  }

  /** Read-only snapshot of an entity's state. */
  def snapshot(clazz: String, key: String): Map[String, Value] =
    state.get((clazz, key)).map(_.toMap).getOrElse {
      val cd = program.clazz(clazz)
      cd.fields.map(f => f.name -> f.init).toMap + (cd.keyField -> Value.VStr(key))
    }

  /** All materialized entities of a class. */
  def entitiesOf(clazz: String): Map[String, Map[String, Value]] =
    state.collect { case ((c, k), m) if c == clazz => k -> m.toMap }.toMap

  private val remoteFn: Eval.RemoteFn = (ref, method, args) => invoke(ref.clazz, ref.key, method, args)

  /** Invoke `clazz[key].method(args)` synchronously; nested remote calls
    * recurse through this interpreter. */
  def invoke(clazz: String, key: String, method: String, args: List[Value]): Value = {
    calls += 1
    val cd = program.clazz(clazz)
    val fd = cd.method(method)
    Eval.invokeLocal(fd, args, entity(clazz, key), cd, remoteFn)
  }
}
