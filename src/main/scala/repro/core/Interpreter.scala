package repro.core

import scala.collection.mutable
import Ast._

/** Direct (unsplit) reference interpreter.
  *
  * Executes the original object-oriented program with *synchronous* remote
  * calls — the semantics the programmer wrote, before any splitting. Every
  * distributed runtime is differential-tested against this interpreter: for
  * a sequential request stream, the split dataflow execution must produce
  * identical return values and identical final entity state. It runs
  * the slot-resolved form of the unsplit method bodies on [[Eval]], the
  * evaluator the split blocks run on.
  */
final class Interpreter(val program: Program) {

  /** Every method's body resolved to slots, by class and method. */
  private val codes: Map[String, Map[String, Resolve.Code]] =
    program.classes.map(cd => cd.name -> new Resolve.ClassSlots(cd, cd.methods).codes).toMap

  /** All entity state: (class, key) -> field array under the class's layout. */
  private val state = mutable.Map.empty[(String, String), Array[Value]]

  /** Hop counter: number of (possibly remote) entity-to-entity calls made,
    * including the client's initial call. Used to cross-check the hop
    * traces the distributed runtimes produce. */
  var calls: Long = 0L

  /** Field array of an entity, created from field defaults on first touch. */
  private def entity(clazz: String, key: String): Array[Value] =
    state.getOrElseUpdate((clazz, key), program.clazz(clazz).initialFields(key))

  /** Overwrite an entity's fields (workload seeding, like a DB load). */
  def seed(clazz: String, key: String, fields: Map[String, Value]): Unit =
    state((clazz, key)) = program.clazz(clazz).layout.updated(entity(clazz, key), fields)

  /** Read-only snapshot of an entity's state. */
  def snapshot(clazz: String, key: String): Map[String, Value] = {
    val cd = program.clazz(clazz)
    state.get((clazz, key)).map(cd.layout.toMap).getOrElse(cd.initialState(key))
  }

  /** All materialized entities of a class. */
  def entitiesOf(clazz: String): Map[String, Map[String, Value]] = {
    val layout = program.clazz(clazz).layout
    state.collect { case ((c, k), a) if c == clazz => k -> layout.toMap(a) }.toMap
  }

  private val remoteFn: Eval.RemoteFn = (ref, method, args) => invoke(ref.clazz, ref.key, method, args)

  /** Invoke `clazz[key].method(args)` synchronously; nested remote calls
    * recurse through this interpreter. */
  def invoke(clazz: String, key: String, method: String, args: List[Value]): Value = {
    calls += 1
    val code = codes(clazz).getOrElse(method,
      throw new NoSuchElementException(s"class $clazz has no method $method"))
    Eval.invoke(code, args, entity(clazz, key), remoteFn)
  }
}
