(** Calvin's transaction model (Thomson et al., SIGMOD 2012).

    Like ALOHA-DB, Calvin requires one-shot transactions with read and
    write sets known up front.  A transaction carries the static facet's
    write list ({!Kernel.Txn.desc}) by reference; after the deterministic
    locking phase every participating partition interprets the {e same}
    write list on the {e same} full read-set values (redundant execution)
    with {!Kernel.Apply} and applies only the writes belonging to its own
    partition.

    Execution is deterministic and — matching the open-source Calvin
    implementation the paper compares against — cannot abort. *)

type t = {
  read_set : string list;
  write_set : string list;
  writes : (string * Kernel.Txn.op) list;
      (** the static write list, shared with the description it came from *)
  version : int;  (** handler-context version (per-cluster sequence) *)
}

val of_txn : version:int -> Kernel.Txn.t -> t
(** Lower a neutral transaction from its static facet (forcing it): the
    read and write sets are derived from the facet's write list. *)

val participants : partition_of:(string -> int) -> t -> int list
(** Sorted distinct partitions touched by the read and write sets. *)

val execute :
  Functor_cc.Registry.t ->
  t ->
  reads:(string * Functor_cc.Value.t option) list ->
  (string * Functor_cc.Value.t) list
(** Interpret the write list against the full read-set values; the full
    write map out.  A handler that aborts (or is unregistered) degrades to
    writing nothing, since deterministic execution cannot abort. *)
