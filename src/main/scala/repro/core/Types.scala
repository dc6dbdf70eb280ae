package repro.core

/** Static types of the stateful-entity language (§2.1).
  *
  * The paper requires the programmer to declare the type of every variable,
  * field, parameter, and return value; the static pass uses `TRef` (a typed
  * reference to another stateful entity) to discover remote calls — a method
  * call whose receiver has type `TRef(c)` is a possibly-remote invocation of
  * class `c` (the paper's "references to remote stateful entities via Python
  * type annotations"). Every `EType` is serializable by construction: what
  * §2.1 rejects (DB connections, pipes) simply has no `EType`.
  */
sealed trait EType {
  def render: String = this match {
    case EType.TInt      => "int"
    case EType.TDouble   => "float"
    case EType.TBool     => "bool"
    case EType.TStr      => "str"
    case EType.TUnit     => "None"
    case EType.TList(e)  => s"List[${e.render}]"
    case EType.TRef(c)   => c
    case EType.TInfer    => "?"
  }
}

object EType {
  /** 64-bit integer. */
  case object TInt extends EType
  /** Double-precision float. */
  case object TDouble extends EType
  /** Boolean. */
  case object TBool extends EType
  /** UTF-8 string. */
  case object TStr extends EType
  /** No value (Python `None`); return type of procedures. */
  case object TUnit extends EType
  /** Immutable list (the only compound data structure, per §2.1 the paper
    * requires in-function data structures to be immutable). */
  final case class TList(elem: EType) extends EType
  /** Reference to a stateful entity of class `clazz` — the marker that turns
    * a method call into a (possibly) remote call. */
  final case class TRef(clazz: String) extends EType

  /** Compiler-internal: type of a temporary introduced by ANF normalization
    * (the checker runs before normalization, so user programs never carry
    * it). */
  case object TInfer extends EType

  /** Widening: `actual` is assignable where `declared` is expected when
    * they are equal, or when an int goes where a float is expected
    * (element-wise inside lists). */
  def typesMatch(declared: EType, actual: EType): Boolean =
    declared == actual ||
      (declared == TDouble && actual == TInt) ||
      ((declared, actual) match {
        case (TList(a), TList(b)) => typesMatch(a, b)
        case _                    => false
      })

  def numeric(t: EType): Boolean = t == TInt || t == TDouble
}
