(** Cluster + workload assembly through the kernel signatures.

    One generic {!build} replaces the old per-engine constructors: it
    creates the engine's cluster, registers the workload's handlers,
    loads the initial data, starts the cluster, and pairs it with the
    workload's request generator.  The result is a {!built} existential
    ready for {!run}.  [compute] selects an engine-specific
    compute-phase mode (ALOHA: "ondemand" / "pool" / "planned"). *)

type built =
  | Built :
      (module Kernel.Intf.ENGINE with type cluster = 'c)
      * 'c
      * (fe:int -> Kernel.Txn.t)
      -> built

val engines : (string * Kernel.Intf.packed) list
(** All registered engines: aloha, calvin, twopl. *)

val engine_of_name : string -> Kernel.Intf.packed option

val engine_name : Kernel.Intf.packed -> string

val build :
  Kernel.Intf.packed ->
  (module Kernel.Intf.WORKLOAD with type cfg = 'k) ->
  'k ->
  n:int ->
  ?epoch_us:int ->
  ?obs:Obs.Ctl.t ->
  ?compute:string ->
  ?replicas:int ->
  ?fastpath:bool ->
  ?seed:int ->
  unit ->
  built
(** [build engine workload cfg ~n] — create, register, load, start.
    [seed] (default 17) seeds the workload generator.  [obs] threads an
    observability handle into the engine's cluster (pass the same handle
    to {!run}). *)

val run :
  built ->
  arrival:Kernel.Arrivals.t ->
  ?obs:Obs.Ctl.t ->
  ?warmup_us:int ->
  ?measure_us:int ->
  ?seed:int ->
  unit ->
  Kernel.Result.t
(** Drive a built deployment through {!Kernel.Run.run}: warm-up window,
    metrics reset, measurement window, result extracted through the
    engine's declared metric keys. *)

(* -- convenience wrappers over the bundled workloads -- *)

val tpcc :
  engine:Kernel.Intf.packed ->
  n:int ->
  warehouses_per_host:int ->
  kind:[ `NewOrder | `Payment ] ->
  ?epoch_us:int ->
  ?obs:Obs.Ctl.t ->
  ?compute:string ->
  ?replicas:int ->
  ?fastpath:bool ->
  ?seed:int ->
  unit ->
  built

val stpcc :
  engine:Kernel.Intf.packed ->
  n:int ->
  districts_per_host:int ->
  ?epoch_us:int ->
  ?obs:Obs.Ctl.t ->
  ?compute:string ->
  ?replicas:int ->
  ?fastpath:bool ->
  ?seed:int ->
  unit ->
  built

val ycsb :
  engine:Kernel.Intf.packed ->
  n:int ->
  ci:float ->
  ?keys_per_partition:int ->
  ?epoch_us:int ->
  ?obs:Obs.Ctl.t ->
  ?compute:string ->
  ?replicas:int ->
  ?fastpath:bool ->
  ?seed:int ->
  unit ->
  built
