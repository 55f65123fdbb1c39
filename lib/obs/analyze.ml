module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  (* Recursive-descent over a cursor; only what the ledger emits (plus
     whitespace) is accepted. *)
  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = failwith (Printf.sprintf "json: %s at %d" msg !pos) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while
        !pos < n
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected %c" c)
    in
    let literal lit v =
      let l = String.length lit in
      if !pos + l <= n && String.sub s !pos l = lit then begin
        pos := !pos + l;
        v
      end
      else fail ("expected " ^ lit)
    in
    let string_lit () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> incr pos
          | '\\' ->
              incr pos;
              (if !pos >= n then fail "bad escape"
               else
                 match s.[!pos] with
                 | '"' -> Buffer.add_char b '"'
                 | '\\' -> Buffer.add_char b '\\'
                 | '/' -> Buffer.add_char b '/'
                 | 'n' -> Buffer.add_char b '\n'
                 | 't' -> Buffer.add_char b '\t'
                 | 'r' -> Buffer.add_char b '\r'
                 | 'b' -> Buffer.add_char b '\b'
                 | 'f' -> Buffer.add_char b '\012'
                 | 'u' ->
                     if !pos + 4 >= n then fail "bad \\u escape";
                     let code =
                       int_of_string ("0x" ^ String.sub s (!pos + 1) 4)
                     in
                     (* The ledger only escapes control chars; anything in
                        the BMP renders as UTF-8. *)
                     if code < 0x80 then Buffer.add_char b (Char.chr code)
                     else if code < 0x800 then begin
                       Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                       Buffer.add_char b
                         (Char.chr (0x80 lor (code land 0x3F)))
                     end
                     else begin
                       Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                       Buffer.add_char b
                         (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                       Buffer.add_char b
                         (Char.chr (0x80 lor (code land 0x3F)))
                     end;
                     pos := !pos + 4
                 | _ -> fail "bad escape");
              incr pos;
              go ()
          | c ->
              Buffer.add_char b c;
              incr pos;
              go ()
      in
      go ();
      Buffer.contents b
    in
    let number () =
      let start = !pos in
      if peek () = Some '-' then incr pos;
      while
        !pos < n
        &&
        match s.[!pos] with
        | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
        | _ -> false
      do
        incr pos
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "bad number"
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then begin
            incr pos;
            Obj []
          end
          else begin
            let fields = ref [] in
            let rec field () =
              skip_ws ();
              let k = string_lit () in
              skip_ws ();
              expect ':';
              let v = value () in
              fields := (k, v) :: !fields;
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  field ()
              | Some '}' -> incr pos
              | _ -> fail "expected , or }"
            in
            field ();
            Obj (List.rev !fields)
          end
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then begin
            incr pos;
            Arr []
          end
          else begin
            let items = ref [] in
            let rec item () =
              let v = value () in
              items := v :: !items;
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  item ()
              | Some ']' -> incr pos
              | _ -> fail "expected , or ]"
            in
            item ();
            Arr (List.rev !items)
          end
      | Some '"' -> Str (string_lit ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (number ())
      | None -> fail "unexpected end of input"
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member name = function
    | Obj fields -> List.assoc_opt name fields
    | _ -> None

  let to_int ?(default = -1) = function
    | Some (Num f) -> int_of_float f
    | _ -> default

  let to_bool ?(default = false) = function
    | Some (Bool b) -> b
    | _ -> default

  let to_str ?(default = "") = function
    | Some (Str s) -> s
    | _ -> default
end

type epoch_row = {
  epoch : int;
  node : int;
  open_us : int;
  close_us : int;
  stretch_millis : int;
  assigned : int;
  fast_commits : int;
  fast_merges : int;
  watermark : int;
  watermark_lag_us : int;
  degraded : bool;
}

type event = { kind : string; ev_node : int; t_us : int; partition : int }

type segment = {
  cfg_epoch_us : int;
  nodes : int;
  replicas : int;
  rows : epoch_row list;
  events : event list;
}

let empty_segment =
  { cfg_epoch_us = 0; nodes = 0; replicas = 1; rows = []; events = [] }

let field name j = Json.member name j

let row_of_json j =
  { epoch = Json.to_int (field "epoch" j);
    node = Json.to_int (field "node" j);
    open_us = Json.to_int (field "open_us" j);
    close_us = Json.to_int (field "close_us" j);
    stretch_millis = Json.to_int (field "stretch_millis" j);
    assigned = Json.to_int ~default:0 (field "assigned" j);
    fast_commits = Json.to_int ~default:0 (field "fast_commits" j);
    fast_merges = Json.to_int ~default:0 (field "fast_merges" j);
    watermark = Json.to_int (field "watermark" j);
    watermark_lag_us = Json.to_int ~default:0 (field "watermark_lag_us" j);
    degraded =
      (match field "groups" j with
      | Some (Json.Arr gs) ->
          List.exists (fun g -> Json.to_bool (field "degraded" g)) gs
      | _ -> false) }

let event_of_json j =
  { kind = Json.to_str (field "kind" j);
    ev_node = Json.to_int (field "node" j);
    t_us = Json.to_int (field "t_us" j);
    partition = Json.to_int (field "partition" j) }

let parse_lines lines =
  (* Accumulate in reverse, flip per segment at the end. *)
  let segs = ref [] in
  let cur = ref None in
  let flush () =
    match !cur with
    | None -> ()
    | Some s ->
        segs := { s with rows = List.rev s.rows; events = List.rev s.events }
                :: !segs;
        cur := None
  in
  let current () =
    match !cur with
    | Some s -> s
    | None ->
        cur := Some empty_segment;
        empty_segment
  in
  List.iteri
    (fun i line ->
      let line = String.trim line in
      if line <> "" then begin
        let j =
          try Json.parse line
          with Failure msg ->
            failwith (Printf.sprintf "line %d: %s" (i + 1) msg)
        in
        match Json.to_str (field "type" j) with
        | "meta" ->
            flush ();
            cur :=
              Some
                { empty_segment with
                  cfg_epoch_us = Json.to_int ~default:0 (field "cfg_epoch_us" j);
                  nodes = Json.to_int ~default:0 (field "nodes" j);
                  replicas = Json.to_int ~default:1 (field "replicas" j) }
        | "epoch" ->
            let s = current () in
            cur := Some { s with rows = row_of_json j :: s.rows }
        | "event" ->
            let s = current () in
            cur := Some { s with events = event_of_json j :: s.events }
        | other ->
            failwith
              (Printf.sprintf "line %d: unknown record type %S" (i + 1)
                 other)
      end)
    lines;
  flush ();
  List.rev !segs

let load path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  parse_lines (List.rev !lines)

(* ---- incidents ---------------------------------------------------------- *)

type incident = {
  i_partition : int;
  crashed_node : int;
  promoted_node : int;
  crash_us : int;
  detect_us : int;
  promote_us : int;
  first_commit_us : int;
}

let resolved i = i.first_commit_us >= 0

(* One incident per promote: the crash is the latest crash at or before
   the promotion whose node is still down then (no restart in between);
   detect is the latest detect verdict for that node in the window; the
   first commit is the earliest first_commit event on the partition at or
   after the promotion. *)
let incidents seg =
  let evs = seg.events in
  List.filter_map
    (fun ev ->
      if ev.kind <> "promote" then None
      else begin
        let crash =
          List.fold_left
            (fun best e ->
              if
                e.kind = "crash" && e.t_us <= ev.t_us
                && (not
                      (List.exists
                         (fun r ->
                           r.kind = "restart" && r.ev_node = e.ev_node
                           && r.t_us > e.t_us && r.t_us <= ev.t_us)
                         evs))
                &&
                match best with None -> true | Some b -> e.t_us >= b.t_us
              then Some e
              else best)
            None evs
        in
        let detect =
          match crash with
          | None -> None
          | Some c ->
              List.fold_left
                (fun best e ->
                  if
                    e.kind = "detect" && e.ev_node = c.ev_node
                    && e.t_us >= c.t_us && e.t_us <= ev.t_us
                    &&
                    match best with
                    | None -> true
                    | Some b -> e.t_us >= b.t_us
                  then Some e
                  else best)
                None evs
        in
        let first_commit =
          List.fold_left
            (fun best e ->
              if
                e.kind = "first_commit" && e.partition = ev.partition
                && e.t_us >= ev.t_us
                &&
                match best with None -> true | Some b -> e.t_us < b.t_us
              then Some e
              else best)
            None evs
        in
        Some
          { i_partition = ev.partition;
            crashed_node =
              (match crash with Some c -> c.ev_node | None -> -1);
            promoted_node = ev.ev_node;
            crash_us = (match crash with Some c -> c.t_us | None -> -1);
            detect_us = (match detect with Some d -> d.t_us | None -> -1);
            promote_us = ev.t_us;
            first_commit_us =
              (match first_commit with Some f -> f.t_us | None -> -1) }
      end)
    evs

let incident_json i =
  Printf.sprintf
    "{\"partition\":%d,\"crashed_node\":%d,\"promoted_node\":%d,\
     \"crash_us\":%d,\"detect_us\":%d,\"promote_us\":%d,\
     \"first_commit_us\":%d,\"detect_latency_us\":%d,\
     \"promote_latency_us\":%d,\"recover_latency_us\":%d,\"resolved\":%b}"
    i.i_partition i.crashed_node i.promoted_node i.crash_us i.detect_us
    i.promote_us i.first_commit_us
    (if i.crash_us >= 0 && i.detect_us >= 0 then i.detect_us - i.crash_us
     else -1)
    (if i.detect_us >= 0 then i.promote_us - i.detect_us else -1)
    (if resolved i then i.first_commit_us - i.promote_us else -1)
    (resolved i)

(* ---- anomalies ---------------------------------------------------------- *)

type anomaly = { a_kind : string; a_detail : string }

let anomalies seg =
  let acc = ref [] in
  let add kind detail = acc := { a_kind = kind; a_detail = detail } :: !acc in
  List.iter
    (fun r ->
      if r.stretch_millis > 2_000 then
        add "epoch_stretch"
          (Printf.sprintf "node %d epoch %d ran %d.%03dx the configured duration"
             r.node r.epoch (r.stretch_millis / 1000)
             (r.stretch_millis mod 1000));
      (* Only windows that received work can meaningfully lag: once the
         workload drains, the newest final value just ages. *)
      if
        r.assigned > 0 && seg.cfg_epoch_us > 0
        && r.watermark_lag_us > 4 * seg.cfg_epoch_us
      then
        add "watermark_lag"
          (Printf.sprintf "node %d epoch %d watermark lag %dus (> 4 epochs)"
             r.node r.epoch r.watermark_lag_us);
      if r.degraded then
        add "single_copy"
          (Printf.sprintf
             "node %d epoch %d closed on a degraded single-copy floor"
             r.node r.epoch))
    seg.rows;
  List.rev !acc

(* ---- doctor invariants -------------------------------------------------- *)

let check seg =
  let bad = ref [] in
  let viol fmt = Printf.ksprintf (fun m -> bad := m :: !bad) fmt in
  let by_node = Hashtbl.create 8 in
  List.iter
    (fun r ->
      if r.epoch < 0 then viol "epoch row with negative epoch (%d)" r.epoch;
      if r.node < 0 then viol "epoch row with negative node (%d)" r.node;
      if r.assigned < 0 || r.fast_commits < 0 || r.fast_merges < 0 then
        viol "node %d epoch %d: negative counter" r.node r.epoch;
      if r.fast_commits > r.assigned then
        viol "node %d epoch %d: fast commits (%d) exceed assigned (%d)"
          r.node r.epoch r.fast_commits r.assigned;
      if r.close_us >= 0 && r.open_us >= 0 && r.close_us < r.open_us then
        viol "node %d epoch %d closed (%dus) before it opened (%dus)"
          r.node r.epoch r.close_us r.open_us;
      if r.close_us >= 0 then
        Hashtbl.replace by_node r.node
          (r
          :: (match Hashtbl.find_opt by_node r.node with
             | Some l -> l
             | None -> [])))
    seg.rows;
  List.iter
    (fun ev ->
      (match ev.kind with
      | "crash" | "restart" | "detect" | "promote" | "first_commit" -> ()
      | k -> viol "unknown event kind %S" k);
      if ev.t_us < 0 then viol "event %s with negative time" ev.kind)
    seg.events;
  (* A crash of [node] in (t0, t1] excuses a watermark reset: the engine
     restarts empty and recovery rebuilds it. *)
  let crashed_between node t0 t1 =
    List.exists
      (fun e ->
        e.kind = "crash" && e.ev_node = node && e.t_us > t0 && e.t_us <= t1)
      seg.events
  in
  Hashtbl.iter
    (fun node rows ->
      let rows =
        List.sort (fun a b -> Int.compare a.epoch b.epoch) rows
      in
      let rec walk = function
        | a :: (b :: _ as rest) ->
            if b.epoch <> a.epoch + 1 then
              viol "node %d: closed epochs not contiguous (%d then %d)" node
                a.epoch b.epoch;
            if
              a.watermark >= 0 && b.watermark >= 0
              && b.watermark < a.watermark
              && not (crashed_between node a.close_us b.close_us)
            then
              viol
                "node %d: watermark regressed %d -> %d across epochs %d-%d \
                 with no crash"
                node a.watermark b.watermark a.epoch b.epoch;
            walk rest
        | [ _ ] | [] -> ()
      in
      walk rows)
    by_node;
  if seg.replicas > 1 then
    List.iter
      (fun e ->
        if e.kind = "crash" then begin
          let handled =
            List.exists
              (fun e' ->
                e'.t_us >= e.t_us
                && ((e'.kind = "restart" && e'.ev_node = e.ev_node)
                   || e'.kind = "promote"))
              seg.events
          in
          if not handled then
            viol
              "node %d crashed at %dus with no subsequent promotion or \
               restart (k=%d)"
              e.ev_node e.t_us seg.replicas
        end)
      seg.events;
  (* An unresolved incident is only a violation when transactions were
     still arriving after the promotion (a window that opened at or after
     it got work assigned); a failover after the workload drained has
     nothing to commit. *)
  let traffic_after t =
    List.exists
      (fun r -> r.assigned > 0 && r.open_us >= t)
      seg.rows
  in
  List.iter
    (fun i ->
      if (not (resolved i)) && traffic_after i.promote_us then
        viol
          "incident on partition %d (promoted to node %d at %dus) never \
           saw a post-failover commit"
          i.i_partition i.promoted_node i.promote_us)
    (incidents seg);
  List.rev !bad
