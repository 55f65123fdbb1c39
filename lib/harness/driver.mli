(** Experiment driver: run a {!Setup.built} deployment through the
    generic kernel client loop (warm-up window, metrics reset,
    measurement window) and extract an engine-agnostic result.

    Per-engine abort classes and auxiliary counters are reported through
    each engine's declared metric keys — 2PL give-ups surface here
    instead of being silently zero under hardcoded ["aloha.*"] names. *)

type result = Kernel.Result.t = {
  committed : int;
  aborts : (string * int) list;
  counters : (string * int) list;
  throughput_tps : float;
  lat_mean_us : float;
  lat_p50_us : int;
  lat_p95_us : int;
  lat_p99_us : int;
  lat_p999_us : int;
  stages : (string * float) list;
  stage_stats : (string * Kernel.Result.stage_stat) list;
}

val pp_result : Format.formatter -> result -> unit

val run :
  Setup.built ->
  arrival:Kernel.Arrivals.t ->
  ?obs:Obs.Ctl.t ->
  ?warmup_us:int ->
  ?measure_us:int ->
  ?seed:int ->
  unit ->
  result
(** The deployment is already created, loaded and started by
    {!Setup.build}. *)

val run_engine :
  (module Kernel.Intf.ENGINE with type cluster = 'c) ->
  cluster:'c ->
  gen:(fe:int -> Kernel.Txn.t) ->
  arrival:Kernel.Arrivals.t ->
  ?on_reply:(fe:int -> Kernel.Txn.reply -> unit) ->
  ?obs:Obs.Ctl.t ->
  ?warmup_us:int ->
  ?measure_us:int ->
  ?seed:int ->
  unit ->
  result
(** Escape hatch for experiments that construct a cluster natively
    (custom engine config, fault injection) — [Alohadb.Engine]'s cluster
    type is transparent precisely so those can still use the generic
    loop.  Same as {!Kernel.Run.run}. *)
