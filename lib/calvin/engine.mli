(** Calvin behind the {!Kernel.Intf.ENGINE} signature: the adapter half
    of {!Deploy.Make}, shared with 2PL.

    Transactions execute from their [static_form] facet, the only one
    Calvin builds (facets are built on demand, so the ALOHA facet is
    never forced here).  {!Ctxn.of_txn} hands the facet's write list to
    the servers by reference, and every participant interprets it with
    {!Kernel.Apply} against a functor registry — replacing the
    hand-written per-workload Calvin procedures.  Workload handlers
    registered through [register] land in that functor registry. *)

include Kernel.Intf.ENGINE

val options_of : ?seed:int -> Kernel.Params.t -> Cluster.options

val set_trace :
  cluster -> (src:Net.Address.t -> dst:Net.Address.t -> unit) -> unit
(** Observe every send on the cluster's RPC plane (chaos tracing). *)

val drop_stats : cluster -> Net.Network.drop_stats
