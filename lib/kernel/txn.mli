(** Engine-neutral transaction descriptions.

    A transaction is a list of per-key operations plus an optional set of
    precondition keys.  The [op] type mirrors the ALOHA functor forms
    (§IV): blind puts/deletes, commutative arithmetic updates, registry
    [Call]s with an explicit read set, and determinate [Det] functors
    whose handler resolves deferred writes to the declared dependent keys
    (§IV-E).

    Because deterministic engines (Calvin-style locking, 2PL) must know
    the complete write set before execution, a transaction carries {e two
    facets}:

    - [functor_form] — the description as ALOHA installs it, where a
      [Det] op may decide {e at evaluation time} which dependents to
      write;
    - [static_form] — an equivalent description whose write set is fully
      static (no [Det]).  Generators that need engine-specific
      pre-assignment (e.g. TPC-C order ids drawn from a per-district
      counter) do it when this facet is built.

    Both facets are built on demand: each is a lazy value forced at most
    once, by the first engine that asks for it, so an engine never pays
    for the facet it does not run.  For the common case where the
    description is already static, {!make} uses one description for both
    facets. *)

module Value = Functor_cc.Value

type op =
  | Put of Value.t
  | Delete
  | Add of int
  | Subtr of int
  | Max of int
  | Min of int
  | Call of {
      handler : string;
      read_set : string list;
      args : Value.t list;
    }
  | Det of {
      handler : string;
      read_set : string list;
      args : Value.t list;
      dependents : string list;
    }

type desc = {
  writes : (string * op) list;
  precondition_keys : string list;
      (** keys whose handlers gate the whole transaction (all-or-nothing
          abort, §IV-C); engines without functor aborts ignore them *)
}

type t

type stage = [ `Install | `Compute ]

type reply =
  | Ok
  | Aborted of stage
      (** [`Install]: rejected before execution (e.g. ALOHA buffer
          overflow, 2PL lock timeout); [`Compute]: a handler decided to
          abort. *)

val desc : ?precondition_keys:string list -> (string * op) list -> desc

val make : ?precondition_keys:string list -> (string * op) list -> t
(** A transaction whose description is already static: both facets are
    the same description. *)

val dual : functor_form:desc Lazy.t -> static_form:desc Lazy.t -> t
(** A transaction with distinct facets, each forced at most once, by the
    first engine that submits it. *)

val functor_form : t -> desc
val static_form : t -> desc

val op_read_set : string -> op -> string list
(** Keys one op on the given key reads: arithmetic ops read their own
    key; [Call]/[Det] read their declared read sets; [Put]/[Delete] read
    nothing. *)

val read_set : desc -> string list
(** Sorted, deduplicated {!op_read_set}s of every op. *)

val write_keys : desc -> string list
(** Sorted, deduplicated keys the description may write, including [Det]
    dependents. *)
