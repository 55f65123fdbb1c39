(** 2PL/2PC behind the {!Kernel.Intf.ENGINE} signature: the adapter half
    of {!Calvin.Deploy.Make}, shared with Calvin.

    Shares Calvin's transaction lowering: only the static facet is built
    (facets are built on demand), and {!Calvin.Ctxn.of_txn} hands its
    write list to the coordinator by reference, which interprets it with
    {!Calvin.Ctxn.execute}.  Lock-wait give-ups surface through
    [abort_keys] (["twopl.given_up"]); restarts and lock timeouts through
    [counter_keys]. *)

include Kernel.Intf.ENGINE

val options_of : ?seed:int -> Kernel.Params.t -> Cluster.options

val set_trace :
  cluster -> (src:Net.Address.t -> dst:Net.Address.t -> unit) -> unit
(** Observe every send on the cluster's RPC plane (chaos tracing). *)

val drop_stats : cluster -> Net.Network.drop_stats
