package repro.examples

import repro.core.Ast._
import repro.core.EType._
import repro.core.Value._

/** The paper's running example (Listing 1 + §2.3): a shopping cart with
  * `User` and `Item` stateful entities.
  *
  * Differences from the Python listing, forced by the entity language:
  * remote *field reads* (`item.price`) are expressed as remote getter calls
  * (`item.get_price()`) — StateFlow's model routes every remote state access
  * through the owning operator, which is what those reads compile to anyway.
  */
object Shop {

  private val itemRef = TRef("Item")

  /** `Item` entity: keyed by item id, holds stock and price. */
  val item: ClassDef = ClassDef(
    name = "Item",
    keyField = "item_id",
    fields = List(
      FieldDef("item_id", TStr, str("")),
      FieldDef("stock", TInt, int(0)),
      FieldDef("price", TInt, int(0)),
    ),
    methods = List(
      FunctionDef("enough_stock", Nil, TBool, List(
        Return(BinOp(">", FieldGet("stock"), Const(int(0)))),
      )),
      FunctionDef("get_price", Nil, TInt, List(
        Return(FieldGet("price")),
      )),
      FunctionDef("remove_stock", List("amount" -> TInt), TBool, List(
        If(BinOp(">=", FieldGet("stock"), Var("amount")),
          List(
            SetField("stock", BinOp("-", FieldGet("stock"), Var("amount"))),
            Return(Const(bool(true))),
          ),
          List(Return(Const(bool(false)))),
        ),
      )),
      FunctionDef("restock", List("amount" -> TInt), TUnit, List(
        SetField("stock", BinOp("+", FieldGet("stock"), Var("amount"))),
      )),
    ),
  )

  /** `User` entity of Listing 1: basket, balance, and the split-worthy
    * `add_to_basket` / `buy_item` methods. */
  val user: ClassDef = ClassDef(
    name = "User",
    keyField = "userid",
    fields = List(
      FieldDef("userid", TStr, str("")),
      FieldDef("balance", TInt, int(1000)),
      FieldDef("basket", TList(itemRef), VList(itemRef, Vector.empty)),
    ),
    methods = List(
      // Listing 1: checks stock of every item, sums prices, compares with
      // the balance, and sets the basket on success.
      FunctionDef("add_to_basket", List("items" -> TList(itemRef)), TBool, List(
        Assign("total_price", TInt, Const(int(0))),
        ForEach("item", itemRef, Var("items"), List(
          If(RemoteCall(Var("item"), "enough_stock", Nil),
            List(
              Assign("price", TInt, RemoteCall(Var("item"), "get_price", Nil)),
              SetVar("total_price", BinOp("+", Var("total_price"), Var("price"))),
            ),
            Nil,
          ),
        )),
        If(BinOp("<", FieldGet("balance"), Var("total_price")),
          List(Return(Const(bool(false)))),
          Nil,
        ),
        SetField("basket", Var("items")),
        Return(Const(bool(true))),
      )),
      // §2.3's one-remote-call example; price passed in so the body matches
      // the paper's two-way split exactly.
      FunctionDef("buy_item", List("amount" -> TInt, "price" -> TInt, "item" -> itemRef), TInt, List(
        Assign("total_price", TInt, BinOp("*", Var("amount"), Var("price"))),
        Assign("is_removed", TBool, RemoteCall(Var("item"), "remove_stock", List(Var("amount")))),
        Return(Var("total_price")),
      )),
      // Checkout with balance mutation — used by runtime differential tests.
      FunctionDef("checkout", List("item" -> itemRef, "amount" -> TInt), TBool, List(
        Assign("price", TInt, RemoteCall(Var("item"), "get_price", Nil)),
        Assign("cost", TInt, BinOp("*", Var("price"), Var("amount"))),
        If(BinOp("<", FieldGet("balance"), Var("cost")),
          List(Return(Const(bool(false)))),
          Nil,
        ),
        Assign("removed", TBool, RemoteCall(Var("item"), "remove_stock", List(Var("amount")))),
        If(Var("removed"),
          List(
            SetField("balance", BinOp("-", FieldGet("balance"), Var("cost"))),
            Return(Const(bool(true))),
          ),
          List(Return(Const(bool(false)))),
        ),
      )),
      FunctionDef("get_balance", Nil, TInt, List(Return(FieldGet("balance")))),
      FunctionDef("deposit", List("amount" -> TInt), TUnit, List(
        SetField("balance", BinOp("+", FieldGet("balance"), Var("amount"))),
      )),
    ),
  )

  /** The whole Listing-1 application. */
  val program: Program = Program(List(user, item))
}
