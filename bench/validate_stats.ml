(* Validator for the telemetry artifacts `rapid check` writes:

     validate_stats stats FILE
       FILE is a --stats-json document (schema "aerodrome-stats/1").

     validate_stats trace FILE
       FILE is a --trace-out Chrome trace-event document.

   Prints "ok" and exits 0 on success; prints a diagnostic and exits 1
   otherwise.  The cram tests run both modes so the CLI exporters and
   their documented key sets cannot drift apart. *)

open Obs.Json

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let field obj key =
  match obj with
  | Obj kvs -> (
    match List.assoc_opt key kvs with
    | Some v -> v
    | None -> bad "missing field %S" key)
  | _ -> bad "expected an object around field %S" key

let as_num what = function Num f -> f | _ -> bad "%s: expected a number" what
let as_str what = function Str s -> s | _ -> bad "%s: expected a string" what
let as_list what = function List l -> l | _ -> bad "%s: expected an array" what

let as_obj what = function
  | Obj kvs -> kvs
  | _ -> bad "%s: expected an object" what

(* Counters every checker contributes through Aerodrome.Cmetrics; their
   presence is the documented contract of --stats-json. *)
let required_metrics =
  [
    "events.total";
    "events.read";
    "events.write";
    "txn.begins";
    "txn.commits";
    "vc.joins";
    "vc.joins_elided";
    "violation.index";
  ]

let metric_value ~where metrics key =
  match List.assoc_opt key metrics with
  | Some (Num f) -> f
  | Some (Obj _) -> bad "%s[%S]: expected a number, got a histogram" where key
  | Some _ -> bad "%s[%S]: expected a number" where key
  | None -> bad "%s: missing metric %S" where key

(* Which path a run took, and why.  [decision.exec] is [stealing] or
   [sequential] and [decision.exec_reason] one of [exec_reasons].  A
   planned run — auto ([critical-path]) or a forced count ([forced]) —
   also reports the plan's critical path, the arena length it was
   weighed against (which is what the checker was fed), and the time to
   build that arena and to plan it, each within the run's seconds; a
   run that never planned reports none of these.  A stealing run has
   [shard.chunks]; a sequential one has no [shard.*] entry at all. *)
let exec_reasons =
  [
    "no-scheduler"; "shards-1"; "timeout"; "checker"; "small-trace";
    "critical-path"; "forced";
  ]

let check_decision ~where ~fed ~seconds metrics =
  let label key =
    match List.assoc_opt key metrics with
    | Some (Str s) -> s
    | Some _ -> bad "%s[%S]: expected a string" where key
    | None -> bad "%s: missing metric %S" where key
  in
  let exec = label "decision.exec" and reason = label "decision.exec_reason" in
  if not (List.mem reason exec_reasons) then
    bad "%s: unknown decision.exec_reason %S" where reason;
  let planned = reason = "critical-path" || reason = "forced" in
  (match exec with
  | "stealing" ->
    if not planned then bad "%s: stealing without a plan (%s)" where reason;
    ignore (metric_value ~where metrics "shard.chunks")
  | "sequential" ->
    if reason = "forced" then bad "%s: a forced plan ran sequentially" where;
    List.iter
      (fun (k, _) ->
        if String.starts_with ~prefix:"shard." k then
          bad "%s: sequential run with %S" where k)
      metrics
  | e -> bad "%s: unknown decision.exec %S" where e);
  let plan_keys =
    [
      "decision.critical_path_events";
      "decision.events";
      "decision.arena_seconds";
      "decision.plan_seconds";
    ]
  in
  if planned then begin
    let cp = metric_value ~where metrics "decision.critical_path_events" in
    let events = metric_value ~where metrics "decision.events" in
    if events <> fed then
      bad "%s: decision.events (%.0f) <> events_fed (%.0f)" where events fed;
    (* survivors' ranges plus repair segments cover the arena at most
       twice over *)
    if cp < 0. || cp > 2. *. events then
      bad "%s: decision.critical_path_events (%.0f) outside [0, 2 * %.0f]"
        where cp events;
    List.iter
      (fun k ->
        let v = metric_value ~where metrics k in
        if v < 0. || v > seconds then
          bad "%s: %s (%g) outside [0, seconds = %g]" where k v seconds)
      [ "decision.arena_seconds"; "decision.plan_seconds" ]
  end
  else
    List.iter
      (fun k ->
        if List.mem_assoc k metrics then bad "%s: %S without a plan" where k)
      plan_keys

let check_stats_file ~where f =
  ignore (as_str (where ^ ".file") (field f "file"));
  match List.assoc_opt "error" (as_obj where f) with
  | Some (Str msg) -> if msg = "" then bad "%s: empty error message" where
  | Some _ -> bad "%s.error: expected a string" where
  | None ->
    let verdict = as_str (where ^ ".verdict") (field f "verdict") in
    (match verdict with
    | "serializable" | "timeout" | "violation" -> ()
    | v -> bad "%s: unknown verdict %S" where v);
    let seconds = as_num (where ^ ".seconds") (field f "seconds") in
    if seconds < 0. then bad "%s: negative seconds" where;
    let fed = as_num (where ^ ".events_fed") (field f "events_fed") in
    if fed < 0. then bad "%s: negative events_fed" where;
    let metrics = as_obj (where ^ ".metrics") (field f "metrics") in
    let mwhere = where ^ ".metrics" in
    List.iter
      (fun key -> ignore (metric_value ~where:mwhere metrics key))
      required_metrics;
    (* A sharded entry also reports how many chunks ran no checker
       because a repair re-feeds their whole range; chunk 0 always
       runs. *)
    if List.mem_assoc "shard.chunks" metrics then begin
      let chunks = metric_value ~where:mwhere metrics "shard.chunks" in
      let skipped = metric_value ~where:mwhere metrics "shard.skipped_chunks" in
      if skipped < 0. || skipped >= chunks then
        bad "%s: shard.skipped_chunks (%.0f) outside [0, shard.chunks)" where
          skipped
    end;
    check_decision ~where:mwhere ~fed ~seconds metrics;
    let total = metric_value ~where:mwhere metrics "events.total" in
    (* The runner feeds the whole trace even after a violation, but the
       checker's own counters freeze at the violating event — so strict
       equality only holds for clean verdicts. *)
    (match verdict with
    | "violation" ->
      let idx = as_num (where ^ ".violation_index") (field f "violation_index") in
      if idx < 1. then bad "%s: violation_index < 1" where;
      if total < idx || total > fed then
        bad "%s: events.total (%.0f) outside [violation_index, events_fed]"
          where total
    | _ ->
      if total <> fed then
        bad "%s: events.total (%.0f) <> events_fed (%.0f)" where total fed)

(* Scheduler telemetry: when `rapid` ran the work-stealing scheduler
   the process snapshot carries a "sched" object and the global
   registry the matching sched.* probes.  Either both appear with the
   documented key set or neither does — a partial export is drift. *)
let sched_metrics =
  [
    "sched.domains";
    "sched.steals";
    "sched.failed_steals";
    "sched.injected";
    "sched.completed";
  ]

let check_sched process =
  let global = as_obj "process.global" (field process "global") in
  match List.assoc_opt "sched" (as_obj "process" process) with
  | None ->
    List.iter
      (fun key ->
        if List.mem_assoc key global then
          bad "process.global: %S probe without a process.sched object" key)
      sched_metrics
  | Some s ->
    List.iter
      (fun key -> ignore (metric_value ~where:"process.global" global key))
      sched_metrics;
    let domains = as_num "process.sched.domains" (field s "domains") in
    if domains < 1. then bad "process.sched: domains < 1";
    List.iter
      (fun k ->
        if as_num ("process.sched." ^ k) (field s k) < 0. then
          bad "process.sched: negative %s" k)
      [ "steals"; "failed_steals"; "injected"; "completed" ];
    List.iter
      (fun k ->
        let l = as_list ("process.sched." ^ k) (field s k) in
        if List.length l <> int_of_float domains then
          bad "process.sched.%s: arity <> domains" k;
        List.iteri
          (fun i v ->
            if as_num (Printf.sprintf "process.sched.%s[%d]" k i) v < 0. then
              bad "process.sched.%s[%d]: negative" k i)
          l)
      [ "busy_seconds"; "utilization"; "tasks" ]

(* Text ingestion: every `rapid` process registers the text reader's
   counters, and the lines that missed the canonical fast path are a
   subset of the lines read — the number a user checks to see whether a
   generator's dialect costs the slow path. *)
let check_ingest process =
  let global = as_obj "process.global" (field process "global") in
  let lines = metric_value ~where:"process.global" global "ingest.text.lines_read" in
  let slow = metric_value ~where:"process.global" global "ingest.text.slow_lines" in
  if slow < 0. || slow > lines then
    bad "process.global: ingest.text.slow_lines (%.0f) outside [0, lines_read = %.0f]"
      slow lines

let check_stats j =
  let schema = as_str "schema" (field j "schema") in
  if schema <> "aerodrome-stats/1" then bad "unknown schema %S" schema;
  if as_str "checker" (field j "checker") = "" then bad "empty checker name";
  let files = as_list "files" (field j "files") in
  if files = [] then bad "no file entries";
  List.iteri
    (fun i f ->
      check_stats_file ~where:(Printf.sprintf "files[%d]" i) f)
    files;
  check_sched (field j "process");
  check_ingest (field j "process")

let check_trace j =
  let events = as_list "traceEvents" (field j "traceEvents") in
  if events = [] then bad "empty traceEvents";
  List.iteri
    (fun i e ->
      let where = Printf.sprintf "traceEvents[%d]" i in
      let ph = as_str (where ^ ".ph") (field e "ph") in
      if as_str (where ^ ".name") (field e "name") = "" then
        bad "%s: empty name" where;
      if as_num (where ^ ".ts") (field e "ts") < 0. then
        bad "%s: negative ts" where;
      ignore (as_num (where ^ ".pid") (field e "pid"));
      ignore (as_num (where ^ ".tid") (field e "tid"));
      match ph with
      | "X" ->
        if as_num (where ^ ".dur") (field e "dur") < 0. then
          bad "%s: negative dur" where
      | "i" -> ignore (as_str (where ^ ".s") (field e "s"))
      | p -> bad "%s: unknown phase %S" where p)
    events

let usage () =
  prerr_endline "usage: validate_stats stats FILE | validate_stats trace FILE";
  exit 2

let () =
  let check, path =
    match Array.to_list Sys.argv with
    | [ _; "stats"; path ] -> (check_stats, path)
    | [ _; "trace"; path ] -> (check_trace, path)
    | _ -> usage ()
  in
  let contents =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match check (parse_exn contents) with
  | () -> print_endline "ok"
  | exception Bad msg ->
    Printf.eprintf "%s: %s\n" path msg;
    exit 1
  | exception Obs.Json.Parse_error msg ->
    Printf.eprintf "%s: %s\n" path msg;
    exit 1
