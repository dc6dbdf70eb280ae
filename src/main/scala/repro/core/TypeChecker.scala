package repro.core

import scala.collection.mutable
import Ast._
import EType.{numeric, typesMatch}

/** The static pass of §2.1.
  *
  * Verifies what the paper's analyzer assumes of a `@stateflow` class:
  * every variable/field/parameter/return is declared with a type; the class
  * has a key (`__key__` — here the designated `keyField`) that is a string
  * and is never re-assigned (the paper relies on programmer discipline for
  * this; we enforce it statically); remote calls are discovered through
  * entity-reference types; `self` calls are restricted to remote-free
  * methods so they can run inline in the operator; a method that declares
  * a result returns on every path. Builtin calls are typed by their
  * [[Builtins.table]] rules. Every `EType` is serializable by construction
  * (§2.1: no DB connections/pipes in state or events), so no check is
  * needed for it.
  */
object TypeChecker {

  /** Result of a successful check. `remoteFree` lists methods (class,
    * method) that contain no remote calls, directly or via self-calls —
    * exactly the methods that do NOT need splitting. `callEdges` are the
    * statically-discovered remote call sites as (fromClass, fromMethod,
    * toClass, toMethod) — §2.2's function call graph. `writes` is each
    * method's write set: the fields it assigns, directly or through `self`
    * calls; a method whose set is empty never changes its entity's state. */
  final case class TypeInfo(
      remoteFree: Set[(String, String)],
      methodRemoteCallCount: Map[(String, String), Int],
      callEdges: List[(String, String, String, String)],
      writes: Map[(String, String), Set[String]],
  )

  final case class TypeError(where: String, msg: String) {
    override def toString = s"$where: $msg"
  }

  def check(program: Program): Either[List[TypeError], TypeInfo] = {
    val errs = mutable.ListBuffer.empty[TypeError]
    val classNames = program.classes.map(_.name).toSet
    if (classNames.size != program.classes.size)
      errs += TypeError("program", "duplicate class names")

    program.classes.foreach { cd =>
      val where = s"class ${cd.name}"
      if (!cd.fields.exists(_.name == cd.keyField))
        errs += TypeError(where, s"key field ${cd.keyField} is not a declared field")
      else if (cd.field(cd.keyField).tpe != EType.TStr)
        errs += TypeError(where, s"key field ${cd.keyField} must be str (it partitions the operator)")
      cd.fields.foreach { f =>
        refTargets(f.tpe).foreach { c =>
          if (!classNames(c)) errs += TypeError(where, s"field ${f.name} references unknown class $c")
        }
        if (!typesMatch(f.tpe, f.init.tpe) && f.init != Value.VUnit)
          errs += TypeError(where, s"field ${f.name}: declared ${f.tpe.render} but default is ${f.init.tpe.render}")
      }
      val methodNames = cd.methods.map(_.name)
      if (methodNames.distinct.size != methodNames.size)
        errs += TypeError(where, "duplicate method names")
    }

    // Remote-freedom must be computed before method-body checks so SelfCall
    // legality can be validated. A method is remote-free iff its body has no
    // RemoteCall and every self-call target is remote-free (fixpoint).
    val directRemote: Map[(String, String), Int] = (for {
      cd <- program.classes; fd <- cd.methods
    } yield (cd.name, fd.name) -> countRemote(fd.body)).toMap

    val selfCallees: Map[(String, String), Set[String]] = (for {
      cd <- program.classes; fd <- cd.methods
    } yield (cd.name, fd.name) -> collectSelfCalls(fd.body)).toMap

    // NB: filter+keySet, not collect — collecting (class, method) tuples out
    // of a Map rebuilds a Map keyed by class and silently drops methods.
    var remoteFree: Set[(String, String)] = directRemote.filter(_._2 == 0).keySet
    var changed = true
    while (changed) {
      changed = false
      remoteFree.foreach { case k @ (c, _) =>
        val callees = selfCallees(k)
        if (!callees.forall(m => remoteFree((c, m)))) {
          remoteFree -= k
          changed = true
        }
      }
    }

    // A method writes the fields it assigns and those of every method it
    // calls on self (fixpoint, as for remote-freedom).
    var writes: Map[(String, String), Set[String]] = (for {
      cd <- program.classes; fd <- cd.methods
    } yield (cd.name, fd.name) -> fieldWrites(fd.body)).toMap
    changed = true
    while (changed) {
      changed = false
      writes.foreach { case (k @ (c, _), ws) =>
        val ws1 = ws ++ selfCallees(k).flatMap(m => writes.getOrElse((c, m), Set.empty))
        if (ws1 != ws) {
          writes += k -> ws1
          changed = true
        }
      }
    }

    val edges = mutable.ListBuffer.empty[(String, String, String, String)]
    program.classes.foreach { cd =>
      cd.methods.foreach { fd =>
        checkMethod(program, classNames, remoteFree, cd, fd, errs, edges)
      }
    }

    if (errs.nonEmpty) Left(errs.toList)
    else Right(TypeInfo(remoteFree, directRemote, edges.toList.distinct, writes))
  }

  /** Throwing convenience for tests and the compiler pipeline. */
  def checkOrThrow(program: Program): TypeInfo = check(program) match {
    case Right(info) => info
    case Left(errs)  => throw new IllegalArgumentException(
      s"type errors:\n  ${errs.mkString("\n  ")}")
  }

  private def refTargets(t: EType): Set[String] = t match {
    case EType.TRef(c)  => Set(c)
    case EType.TList(e) => refTargets(e)
    case _              => Set.empty
  }

  private def countRemote(b: List[Stmt]): Int =
    bodyExprs(b).flatMap(subExprs).count(_.isInstanceOf[RemoteCall])

  private def collectSelfCalls(b: List[Stmt]): Set[String] =
    bodyExprs(b).flatMap(subExprs).collect { case SelfCall(m, _) => m }.toSet

  /** Fields assigned anywhere in `b`, including nested bodies. */
  private def fieldWrites(b: List[Stmt]): Set[String] = b.flatMap {
    case SetField(n, _)       => List(n)
    case If(_, t, e)          => fieldWrites(t) ++ fieldWrites(e)
    case ForEach(_, _, _, bd) => fieldWrites(bd)
    case While(_, bd)         => fieldWrites(bd)
    case _                    => Nil
  }.toSet

  // -------------------------------------------------------- method checking

  private def checkMethod(
      program: Program,
      classNames: Set[String],
      remoteFree: Set[(String, String)],
      cd: ClassDef,
      fd: FunctionDef,
      errs: mutable.ListBuffer[TypeError],
      edges: mutable.ListBuffer[(String, String, String, String)],
  ): Unit = {
    val where = s"${cd.name}.${fd.name}"
    val vars = mutable.Map.empty[String, EType]
    fd.params.foreach { case (n, t) => vars(n) = t }

    def err(msg: String): Unit = errs += TypeError(where, msg)

    def infer(e: Expr): Option[EType] = e match {
      case Const(v)    => checkConst(v); Some(v.tpe)
      case Var(n)      => vars.get(n).orElse { err(s"use of undeclared variable $n"); None }
      case FieldGet(n) =>
        cd.fields.find(_.name == n).map(_.tpe).orElse { err(s"unknown field self.$n"); None }
      case Not(x) =>
        infer(x).foreach(t => if (t != EType.TBool) err(s"not on ${t.render}")); Some(EType.TBool)
      case Neg(x) => infer(x) match {
        case Some(EType.TInt)    => Some(EType.TInt)
        case Some(EType.TDouble) => Some(EType.TDouble)
        case Some(t)             => err(s"neg on ${t.render}"); None
        case None                => None
      }
      case MakeList(t, items) =>
        items.foreach(i => infer(i).foreach(it => if (!typesMatch(t, it)) err(s"list element ${it.render} in List[${t.render}]")))
        Some(EType.TList(t))
      case BinOp(op @ ("and" | "or"), l, r) =>
        List(l, r).foreach(x => infer(x).foreach(t => if (t != EType.TBool) err(s"$op on ${t.render}")))
        Some(EType.TBool)
      case BinOp("==" | "!=", l, r) => infer(l); infer(r); Some(EType.TBool)
      case BinOp("<" | "<=" | ">" | ">=", l, r) =>
        for (a <- infer(l); b <- infer(r))
          if (!comparable(a, b)) err(s"comparison of ${a.render} and ${b.render}")
        Some(EType.TBool)
      case BinOp(op, l, r) =>
        (infer(l), infer(r)) match {
          case (Some(EType.TStr), Some(EType.TStr)) if op == "+" => Some(EType.TStr)
          case (Some(EType.TList(a)), Some(EType.TList(b))) if op == "+" && typesMatch(a, b) =>
            Some(EType.TList(a))
          case (Some(a), Some(b)) if numeric(a) && numeric(b) =>
            if (op == "/") Some(EType.TDouble)
            else if (a == EType.TDouble || b == EType.TDouble) Some(EType.TDouble)
            else Some(EType.TInt)
          case (Some(a), Some(b)) => err(s"$op on ${a.render} and ${b.render}"); None
          case _                  => None
        }
      case Builtin("ref", Const(Value.VStr(c)) :: key :: Nil) =>
        // ref("Hotel", k) constructs a typed entity reference; the class name
        // must be a literal so the static pass can type it (paper: remote
        // calls are discovered through type annotations). Any other ref
        // call meets ref's empty rule below.
        infer(key)
        if (!classNames(c)) { err(s"ref to unknown class $c"); None } else Some(EType.TRef(c))
      case Builtin(name, args) =>
        val ts = args.flatMap(infer)
        Builtins.table.get(name) match {
          case None => err(s"unknown builtin $name"); None
          case Some(_) if ts.length < args.length => None // an argument already failed
          case Some(b) =>
            val t = b.resultType(ts)
            if (t.isEmpty) err(s"$name: no rule for ${Builtins.render(ts)}")
            t
        }
      case RemoteCall(t, m, as) =>
        infer(t) match {
          case Some(EType.TRef(c)) if classNames(c) =>
            val target = program.clazz(c)
            target.methods.find(_.name == m) match {
              case None => err(s"class $c has no method $m"); None
              case Some(md) =>
                edges += ((cd.name, fd.name, c, m))
                checkArgs(s"$c.$m", md.params, as.map(infer), err)
                Some(md.returnType)
            }
          case Some(EType.TRef(c)) => err(s"reference to unknown class $c"); None
          case Some(t2) => err(s"method call on non-entity type ${t2.render}"); None
          case None => None
        }
      case SelfCall(m, as) =>
        cd.methods.find(_.name == m) match {
          case None => err(s"no method $m on self"); None
          case Some(md) =>
            if (!remoteFree((cd.name, m)))
              err(s"self-call to $m, which makes remote calls — self-calls must be remote-free (inline)")
            checkArgs(s"self.$m", md.params, as.map(infer), err)
            Some(md.returnType)
        }
    }

    // A list constant carries its element type: every element, at any
    // depth, must match it.
    def checkConst(v: Value): Unit = v match {
      case Value.VList(t, xs) => xs.foreach { x =>
        if (!typesMatch(t, x.tpe)) err(s"list element ${x.tpe.render} in List[${t.render}]")
        checkConst(x)
      }
      case _ => ()
    }

    def checkArgs(what: String, params: List[(String, EType)], args: List[Option[EType]],
                  err: String => Unit): Unit = {
      if (params.length != args.length)
        err(s"$what expects ${params.length} args, got ${args.length}")
      else params.zip(args).foreach {
        case ((n, pt), Some(at)) if !typesMatch(pt, at) =>
          err(s"$what arg $n: expected ${pt.render}, got ${at.render}")
        case _ => ()
      }
    }

    def checkBody(stmts: List[Stmt]): Unit = stmts.foreach {
      case Assign(n, t, v) =>
        infer(v).foreach(vt => if (!typesMatch(t, vt)) err(s"$n: declared ${t.render} but assigned ${vt.render}"))
        vars(n) = t
      case SetVar(n, v) =>
        vars.get(n) match {
          case None    => err(s"assignment to undeclared variable $n")
          case Some(t) => infer(v).foreach(vt => if (!typesMatch(t, vt)) err(s"$n: ${t.render} := ${vt.render}"))
        }
      case SetField(n, v) =>
        if (n == cd.keyField) err(s"key field ${cd.keyField} cannot change during an entity's lifetime")
        cd.fields.find(_.name == n) match {
          case None    => err(s"assignment to unknown field self.$n")
          case Some(f) => infer(v).foreach(vt => if (!typesMatch(f.tpe, vt)) err(s"self.$n: ${f.tpe.render} := ${vt.render}"))
        }
      case If(c, t, e) =>
        infer(c).foreach(ct => if (ct != EType.TBool) err(s"if condition is ${ct.render}"))
        checkBody(t); checkBody(e)
      case ForEach(n, et, it, body) =>
        infer(it).foreach {
          case EType.TList(e2) => if (!typesMatch(et, e2)) err(s"for $n: element ${e2.render}, declared ${et.render}")
          case t               => err(s"for over non-list ${t.render}")
        }
        vars(n) = et
        checkBody(body)
      case While(c, body) =>
        infer(c).foreach(ct => if (ct != EType.TBool) err(s"while condition is ${ct.render}"))
        checkBody(body)
      case Return(v) =>
        infer(v).foreach(vt =>
          if (!typesMatch(fd.returnType, vt)) err(s"return ${vt.render}, declared ${fd.returnType.render}"))
      case ExprStmt(e) => infer(e)
    }

    checkBody(fd.body)
    if (fd.returnType != EType.TUnit && !returns(fd.body))
      err(s"not every path returns the declared ${fd.returnType.render}")
  }

  /** Definite return: some statement of `b` returns on every path — a
    * `return`, or an `if` whose branches both do. Loops do not count: their
    * body may run zero times. */
  private def returns(b: List[Stmt]): Boolean = b.exists {
    case Return(_)   => true
    case If(_, t, e) => returns(t) && returns(e)
    case _           => false
  }

  private def comparable(a: EType, b: EType): Boolean =
    (numeric(a) && numeric(b)) || (a == EType.TStr && b == EType.TStr)
}
