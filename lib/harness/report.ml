(* Machine-readable benchmark reporting.

   The console output of Experiments is meant for eyeballs; CI and the
   regression gate want JSON.  Figures record structured points (tps /
   latency) through the row helpers in Experiments, every console row is
   also captured verbatim for figures without a structured shape, and the
   micro suite records ns/op estimates.  bench/main.exe decides whether a
   run is recording (--json) and where the files go. *)

type macro_point = {
  fig : string;
  series : string;
  point : string;
  tps : float option;
  lat_mean_ms : float option;
  lat_p99_ms : float option;
}

let enabled = ref false
let macro_points : macro_point list ref = ref []
let raw_rows : (string * string list) list ref = ref []
let fig_times : (string * float) list ref = ref []
let micro_results : (string * float) list ref = ref []

let enable () = enabled := true
let recording () = !enabled

let record_point ~fig ~series ~point ?tps ?lat_mean_ms ?lat_p99_ms () =
  if !enabled then
    macro_points :=
      { fig; series; point; tps; lat_mean_ms; lat_p99_ms } :: !macro_points

let record_row ~fig ~cols = if !enabled then raw_rows := (fig, cols) :: !raw_rows

let record_fig_time ~fig ~seconds =
  if !enabled then fig_times := (fig, seconds) :: !fig_times

let record_micro ~name ~ns_per_op =
  if !enabled then micro_results := (name, ns_per_op) :: !micro_results

(* ---- JSON emission (hand-rolled; no json dependency) -------------------- *)

let jstr s = Printf.sprintf "\"%s\"" (Obs.Export.jescape s)

let jfloat f =
  if Float.is_finite f then Printf.sprintf "%.3f" f else "null"

let jfloat_opt = function None -> "null" | Some f -> jfloat f

let point_json p =
  Printf.sprintf
    "{\"fig\":%s,\"series\":%s,\"point\":%s,\"tps\":%s,\"lat_mean_ms\":%s,\"lat_p99_ms\":%s}"
    (jstr p.fig) (jstr p.series) (jstr p.point) (jfloat_opt p.tps)
    (jfloat_opt p.lat_mean_ms) (jfloat_opt p.lat_p99_ms)

let row_json (fig, cols) =
  Printf.sprintf "{\"fig\":%s,\"cols\":[%s]}" (jstr fig)
    (String.concat "," (List.map jstr cols))

let time_json (fig, seconds) =
  Printf.sprintf "{\"fig\":%s,\"wall_s\":%s}" (jstr fig) (jfloat seconds)

let micro_json (name, ns) =
  Printf.sprintf "{\"name\":%s,\"ns_per_op\":%s}" (jstr name) (jfloat ns)

let write path body =
  let oc = open_out path in
  output_string oc body;
  output_char oc '\n';
  close_out oc

(* TIMELINE.jsonl is genuinely append-only: each run contributes one
   segment (meta line + rows), and Obs.Analyze splits segments back apart
   at the meta lines. *)
let write_timeline path lines =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    lines;
  close_out oc

let write_micro path =
  write path
    (Printf.sprintf "{\"suite\":\"micro\",\"results\":[%s]}"
       (String.concat "," (List.rev_map micro_json !micro_results)))

let write_macro ~scale path =
  write path
    (Printf.sprintf
       "{\"suite\":\"macro\",\"scale\":%s,\"points\":[%s],\"rows\":[%s],\"timings\":[%s]}"
       (jstr scale)
       (String.concat "," (List.rev_map point_json !macro_points))
       (String.concat "," (List.rev_map row_json !raw_rows))
       (String.concat "," (List.rev_map time_json !fig_times)))

(* ---- availability under chaos (BENCH_availability.json) ------------------ *)

(* One committed-work-over-time series per replication degree, all from
   the same fault schedule: the availability figure.  With k = 1 the
   committed curve plateaus while the crashed backend's partitions are
   dark and [completed < submitted] if the crash outlives the horizon;
   with k > 1 failover keeps the curve climbing.  Points come from the
   chaos driver's probe loop, but the type is kept plain so the harness
   does not depend on the chaos library. *)

type avail_series = {
  av_replicas : int;
  av_engine : string;
  av_seed : int;
  av_submitted : int;
  av_completed : int;
  av_points : (int * int) list;
}

let write_availability ~path ~schedule ~series =
  let point_json (t_us, committed) =
    Printf.sprintf "{\"t_us\":%d,\"committed\":%d}" t_us committed
  in
  let series_json s =
    Printf.sprintf
      "{\"replicas\":%d,\"engine\":%s,\"seed\":%d,\"submitted\":%d,\"completed\":%d,\"points\":[%s]}"
      s.av_replicas (jstr s.av_engine) s.av_seed s.av_submitted s.av_completed
      (String.concat "," (List.map point_json s.av_points))
  in
  write path
    (Printf.sprintf
       "{\"suite\":\"availability\",\"schedule\":%s,\"series\":[%s]}"
       (jstr schedule)
       (String.concat "," (List.map series_json series)))

(* ---- fast-path latency collapse (BENCH_fastpath.json) -------------------- *)

(* The same counter-heavy workload run twice — coordination-free commit
   lane on and off — so the regression gate can check the headline claim
   directly: the on-series p50 must sit below the off-series p50 (which
   carries the full epoch-close + compute wait).  Plain ints/floats so
   the harness does not grow a dependency for this. *)

type fastpath_series = {
  fp_mode : string;  (* "on" | "off" *)
  fp_committed : int;
  fp_tps : float;
  fp_p50_us : int;
  fp_p99_us : int;
  fp_fast_commits : int;  (* aloha.fastpath_commits in this run *)
}

let write_fastpath ~path ~workload ~series =
  let series_json s =
    Printf.sprintf
      "{\"mode\":%s,\"committed\":%d,\"tps\":%s,\"p50_us\":%d,\"p99_us\":%d,\"fastpath_commits\":%d}"
      (jstr s.fp_mode) s.fp_committed (jfloat s.fp_tps) s.fp_p50_us
      s.fp_p99_us s.fp_fast_commits
  in
  write path
    (Printf.sprintf "{\"suite\":\"fastpath\",\"workload\":%s,\"series\":[%s]}"
       (jstr workload)
       (String.concat "," (List.map series_json series)))

(* ---- run telemetry (TELEMETRY.json) -------------------------------------- *)

(* One run's observability summary: headline result numbers, per-stage
   latency percentiles, final gauge values with sample counts, trace-ring
   occupancy, and fault-correlation counters.  Small and flat on purpose —
   the Chrome trace carries the event-level detail; this file is for the
   regression dashboard and quick CI diffing. *)

let jint = string_of_int

let stage_stat_json (name, (st : Kernel.Result.stage_stat)) =
  Printf.sprintf
    "{\"stage\":%s,\"mean_us\":%s,\"p50_us\":%s,\"p95_us\":%s,\"p99_us\":%s,\"p999_us\":%s}"
    (jstr name) (jfloat st.Kernel.Result.mean_us) (jint st.p50_us)
    (jint st.p95_us) (jint st.p99_us) (jint st.p999_us)

let gauge_series_json (g : Obs.Gauges.t) =
  let series = Obs.Gauges.series g in
  let one (name, samples) =
    let n = List.length samples in
    let last =
      match List.rev samples with [] -> 0.0 | (_, v) :: _ -> v
    in
    let hi =
      List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 samples
    in
    Printf.sprintf "{\"name\":%s,\"samples\":%s,\"last\":%s,\"max\":%s}"
      (jstr name) (jint n) (jfloat last) (jfloat hi)
  in
  String.concat "," (List.map one series)

let write_telemetry ~path ~engine ~workload ~(result : Kernel.Result.t)
    ?(drops : Net.Network.drop_stats option) ?(ctl : Obs.Ctl.t option) () =
  let trace_json =
    match ctl with
    | None -> "null"
    | Some ctl ->
        let tr = Obs.Ctl.trace ctl in
        Printf.sprintf
          "{\"sample_rate\":%s,\"capacity\":%s,\"events\":%s,\"total\":%s,\"dropped\":%s,\"fault_drops\":%s,\"fault_delays\":%s}"
          (jint (Obs.Trace.sample_rate tr))
          (jint (Obs.Trace.capacity tr))
          (jint (Obs.Trace.length tr))
          (jint (Obs.Trace.total tr))
          (jint (Obs.Trace.dropped tr))
          (jint (Obs.Ctl.fault_drops ctl))
          (jint (Obs.Ctl.fault_delays ctl))
  in
  let gauges_json =
    match ctl with
    | None -> ""
    | Some ctl -> gauge_series_json (Obs.Ctl.gauges ctl)
  in
  let drops_json =
    match drops with
    | None -> "null"
    | Some d ->
        Printf.sprintf
          "{\"injected\":%s,\"partitioned\":%s,\"crashed\":%s,\"unregistered\":%s}"
          (jint d.Net.Network.injected) (jint d.partitioned) (jint d.crashed)
          (jint d.unregistered)
  in
  write path
    (Printf.sprintf
       "{\"suite\":\"telemetry\",\"engine\":%s,\"workload\":%s,\"tps\":%s,\"committed\":%s,\"aborted\":%s,\"lat_mean_us\":%s,\"lat_p50_us\":%s,\"lat_p95_us\":%s,\"lat_p99_us\":%s,\"lat_p999_us\":%s,\"stages\":[%s],\"gauges\":[%s],\"trace\":%s,\"net_drops\":%s}"
       (jstr engine) (jstr workload)
       (jfloat result.Kernel.Result.throughput_tps)
       (jint result.committed)
       (jint (Kernel.Result.abort_count result))
       (jfloat result.lat_mean_us) (jint result.lat_p50_us)
       (jint result.lat_p95_us) (jint result.lat_p99_us)
       (jint result.lat_p999_us)
       (String.concat "," (List.map stage_stat_json result.stage_stats))
       gauges_json trace_json drops_json)
