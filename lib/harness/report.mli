(* Machine-readable benchmark reporting: collects figure points, raw
   console rows, per-figure wall-clock timings and micro ns/op estimates,
   and emits them as JSON (BENCH_macro.json / BENCH_micro.json).

   Recording is off by default; bench/main.exe turns it on with --json.
   When off, every record_* call is a no-op, so the harness can call them
   unconditionally. *)

val enable : unit -> unit
val recording : unit -> bool

val record_point :
  fig:string ->
  series:string ->
  point:string ->
  ?tps:float ->
  ?lat_mean_ms:float ->
  ?lat_p99_ms:float ->
  unit ->
  unit

val record_row : fig:string -> cols:string list -> unit
val record_fig_time : fig:string -> seconds:float -> unit
val record_micro : name:string -> ns_per_op:float -> unit

val write_micro : string -> unit
val write_macro : scale:string -> string -> unit

val write_timeline : string -> string list -> unit
(** Append JSONL lines (one epoch-ledger segment, from
    [Obs.Ledger.to_lines]) to a TIMELINE.jsonl file, creating it if
    absent.  Append-only on purpose: successive runs accumulate segments
    that [Obs.Analyze] separates at the meta lines.  Unconditional. *)

type avail_series = {
  av_replicas : int;
  av_engine : string;
  av_seed : int;
  av_submitted : int;  (** scripted transactions in the workload *)
  av_completed : int;  (** transactions that replied by the horizon *)
  av_points : (int * int) list;
      (** [(t_us, committed)] samples from the chaos driver's probe loop *)
}

val write_availability :
  path:string -> schedule:string -> series:avail_series list -> unit
(** Write BENCH_availability.json: committed-work-over-time under one
    fault schedule, one series per replication degree — the
    availability-under-chaos figure.  Unconditional (does not consult
    {!recording}); kept free of chaos-library types on purpose. *)

type fastpath_series = {
  fp_mode : string;  (** ["on"] or ["off"] *)
  fp_committed : int;
  fp_tps : float;
  fp_p50_us : int;
  fp_p99_us : int;
  fp_fast_commits : int;
      (** transactions that took the coordination-free lane in this run
          ([aloha.fastpath_commits]); 0 in the off series *)
}

val write_fastpath :
  path:string -> workload:string -> series:fastpath_series list -> unit
(** Write BENCH_fastpath.json: one counter-heavy workload measured with
    the algebraic fast path on and off — the latency-collapse figure.
    Unconditional (does not consult {!recording}). *)

val write_telemetry :
  path:string ->
  engine:string ->
  workload:string ->
  result:Kernel.Result.t ->
  ?drops:Net.Network.drop_stats ->
  ?ctl:Obs.Ctl.t ->
  unit ->
  unit
(** Write one run's observability summary (TELEMETRY.json): headline
    result numbers including p999, per-stage latency percentiles, gauge
    series summaries, trace-ring occupancy / sampling stats, and fault
    counters.  Unlike the record_* API this is unconditional — it does not
    consult {!recording}. *)
