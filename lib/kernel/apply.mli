(** Pure interpreter for a static {!Txn.desc} write list.

    Engines that execute transactions deterministically (Calvin-style
    locking, 2PL) carry the static facet's write list, by reference, with
    the transaction and call {!writes} on it at execution time, instead of
    hand-writing a stored procedure per workload transaction.

    Semantics match the ALOHA compute engine on the overlapping ops: all
    reads observe pre-transaction state (sibling writes are not visible,
    exactly as ALOHA functors read strictly below the transaction's
    version) and arithmetic built-ins treat an absent key as 0. *)

val writes :
  registry:Functor_cc.Registry.t ->
  version:int ->
  reads:(string * Functor_cc.Value.t option) list ->
  (string * Txn.op) list ->
  (string * Functor_cc.Value.t) list option
(** Evaluate each op against [reads] (the pre-state of the union read
    set).  [None] when any handler aborts or is unregistered — the caller
    decides what "abort" means for an engine that cannot abort.  Raises
    [Invalid_argument] on ops with no static form ([Delete],
    [Dep_delete]). *)
