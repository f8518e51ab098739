(* Schema validator for the bench harness's --json output
   (schema "aerodrome-bench/10").  Exits 0 and prints "ok" when the file
   parses and carries the expected structure; prints a diagnostic and
   exits 1 otherwise.  Used by the cram test so the emitter cannot rot.

   Parsing is [Obs.Json] (the library superseded this file's private
   JSON reader); the schema checks below stay local to the bench. *)

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

let check_sample ~where s =
  let name = as_str (where ^ ".name") (field s "name") in
  let seconds = as_num (where ^ ".seconds") (field s "seconds") in
  let fed = as_num (where ^ ".events_fed") (field s "events_fed") in
  let eps = as_num (where ^ ".events_per_sec") (field s "events_per_sec") in
  let verdict = as_str (where ^ ".verdict") (field s "verdict") in
  ignore (as_num (where ^ ".allocated_mwords") (field s "allocated_mwords"));
  ignore (as_num (where ^ ".top_heap_words") (field s "top_heap_words"));
  if name = "" then bad "%s: empty checker name" where;
  if seconds < 0. then bad "%s: negative seconds" where;
  if fed < 0. then bad "%s: negative events_fed" where;
  if eps < 0. then bad "%s: negative events_per_sec" where;
  match verdict with
  | "serializable" | "violation" | "timeout" -> ()
  | "n/a" -> ()  (* decode-only ingestion micro rows: no checker ran *)
  | v -> bad "%s: unknown verdict %S" where v

let check_row ~where r =
  let name = as_str (where ^ ".name") (field r "name") in
  let events = as_num (where ^ ".events") (field r "events") in
  ignore (as_num (where ^ ".threads") (field r "threads"));
  ignore (as_num (where ^ ".locks") (field r "locks"));
  ignore (as_num (where ^ ".vars") (field r "vars"));
  let checkers = as_list (where ^ ".checkers") (field r "checkers") in
  if name = "" then bad "%s: empty row name" where;
  if events < 0. then bad "%s: negative events" where;
  if checkers = [] then bad "%s: no checker samples" where;
  List.iteri
    (fun i s -> check_sample ~where:(Printf.sprintf "%s.checkers[%d]" where i) s)
    checkers

let as_bool what = function
  | Bool b -> b
  | _ -> bad "%s: expected a boolean" what

(* [field] when the object carries [key], for the sections older
   artifacts still carry but current runs no longer emit. *)
let optional obj key =
  match obj with Obj kvs -> List.assoc_opt key kvs | _ -> None

(* Older artifacts also carry, next to [corpus], a measurement of the
   removed ring-buffer ingestion path; it is not validated. *)
let check_parallel = function
  | Null -> ()
  | p ->
    let corpus = field p "corpus" in
    ignore (as_num "parallel.corpus.traces" (field corpus "traces"));
    let events_total =
      as_num "parallel.corpus.events_total" (field corpus "events_total")
    in
    if events_total < 0. then bad "parallel.corpus: negative events_total";
    let runs = as_list "parallel.corpus.runs" (field corpus "runs") in
    if runs = [] then bad "parallel.corpus: no runs";
    List.iteri
      (fun i r ->
        let where = Printf.sprintf "parallel.corpus.runs[%d]" i in
        let jobs = as_num (where ^ ".jobs") (field r "jobs") in
        if jobs < 1. then bad "%s: jobs < 1" where;
        if as_num (where ^ ".wall_seconds") (field r "wall_seconds") < 0. then
          bad "%s: negative wall_seconds" where;
        ignore (as_num (where ^ ".events_per_sec") (field r "events_per_sec"));
        ignore
          (as_num (where ^ ".speedup_vs_jobs1") (field r "speedup_vs_jobs1"));
        if not (as_bool (where ^ ".verdicts_match") (field r "verdicts_match"))
        then bad "%s: parallel verdicts diverged from sequential" where)
      runs

(* The telemetry section carries the instrumented-vs-uninstrumented
   throughput comparison and the enabled run's metric snapshot; the
   snapshot must include the core per-event counters so a BENCH file
   cannot silently lose them. *)
let telemetry_required_metrics =
  [ "events.total"; "events.read"; "events.write"; "vc.joins" ]

let check_telemetry = function
  | Null -> ()
  | t ->
    let events = as_num "telemetry.events" (field t "events") in
    if events < 0. then bad "telemetry: negative events";
    let dis =
      as_num "telemetry.disabled_events_per_sec"
        (field t "disabled_events_per_sec")
    in
    let en =
      as_num "telemetry.enabled_events_per_sec"
        (field t "enabled_events_per_sec")
    in
    if dis <= 0. then bad "telemetry: disabled_events_per_sec <= 0";
    if en <= 0. then bad "telemetry: enabled_events_per_sec <= 0";
    let overhead = as_num "telemetry.overhead_pct" (field t "overhead_pct") in
    if Float.is_nan overhead then bad "telemetry: overhead_pct is NaN";
    let metrics = field t "metrics" in
    (match metrics with
    | Obj _ -> ()
    | _ -> bad "telemetry.metrics: expected an object");
    List.iter
      (fun key ->
        if as_num (Printf.sprintf "telemetry.metrics[%S]" key)
             (field metrics key)
           < 0.
        then bad "telemetry.metrics[%S]: negative" key)
      telemetry_required_metrics

(* The reclaim section is the peak-memory axis: both sides must carry
   their peak figure, verdicts must match, and reclamation may never
   *increase* the peak — the cram smoke run enforces the reduction. *)
let check_reclaim = function
  | Null -> ()
  | rc ->
    if as_num "reclaim.events" (field rc "events") <= 0. then
      bad "reclaim: events <= 0";
    ignore (as_num "reclaim.threads" (field rc "threads"));
    ignore (as_num "reclaim.vars" (field rc "vars"));
    let side where s =
      if as_num (where ^ ".seconds") (field s "seconds") < 0. then
        bad "%s: negative seconds" where;
      if as_num (where ^ ".events_per_sec") (field s "events_per_sec") < 0.
      then bad "%s: negative events_per_sec" where;
      let peak = as_num (where ^ ".peak_live_words") (field s "peak_live_words") in
      if peak < 0. then bad "%s: negative peak_live_words" where;
      peak
    in
    let off = side "reclaim.off" (field rc "off") in
    let on_ = field rc "on" in
    let on_peak = side "reclaim.on" on_ in
    let hits = as_num "reclaim.on.pool_hits" (field on_ "pool_hits") in
    let misses = as_num "reclaim.on.pool_misses" (field on_ "pool_misses") in
    if hits < 0. || misses < 0. then bad "reclaim.on: negative pool counters";
    let rate = as_num "reclaim.on.pool_hit_rate" (field on_ "pool_hit_rate") in
    if rate < 0. || rate > 1. then
      bad "reclaim.on: pool_hit_rate outside [0, 1]";
    if as_num "reclaim.on.reclaimed_states" (field on_ "reclaimed_states") < 0.
    then bad "reclaim.on: negative reclaimed_states";
    ignore
      (as_num "reclaim.peak_reduction_pct" (field rc "peak_reduction_pct"));
    if not (as_bool "reclaim.verdicts_match" (field rc "verdicts_match")) then
      bad "reclaim: verdicts diverged between reclaim modes";
    if on_peak > off then
      bad "reclaim: peak_live_words grew with reclamation on (%.0f > %.0f)"
        on_peak off

(* The prefilter section is the trace-reduction axis: the reduction may
   never grow the trace, the per-rule breakdown must account for every
   elided event, and the checker verdict must be identical with the
   filter off and exact.  Artifacts written before the single-pass
   online mode was removed also carry its side; it is checked when
   present. *)
let check_prefilter = function
  | Null -> ()
  | p ->
    let events_in = as_num "prefilter.events_in" (field p "events_in") in
    let events_out = as_num "prefilter.events_out" (field p "events_out") in
    if events_in <= 0. then bad "prefilter: events_in <= 0";
    if events_out < 0. then bad "prefilter: negative events_out";
    if events_out > events_in then
      bad "prefilter: events_out grew (%.0f > %.0f)" events_out events_in;
    ignore (as_num "prefilter.threads" (field p "threads"));
    ignore (as_num "prefilter.vars" (field p "vars"));
    let elided = field p "elided" in
    let rule key =
      let v = as_num (Printf.sprintf "prefilter.elided.%s" key) (field elided key) in
      if v < 0. then bad "prefilter.elided.%s: negative" key;
      v
    in
    let total =
      rule "thread_local" +. rule "read_only" +. rule "redundant"
      +. rule "lock_local"
    in
    if events_out +. total <> events_in then
      bad "prefilter: events_out + elided <> events_in (%.0f + %.0f <> %.0f)"
        events_out total events_in;
    let side where s =
      if as_num (where ^ ".seconds") (field s "seconds") < 0. then
        bad "%s: negative seconds" where;
      if as_num (where ^ ".events_per_sec") (field s "events_per_sec") < 0.
      then bad "%s: negative events_per_sec" where;
      as_num (where ^ ".events_fed") (field s "events_fed")
    in
    let off_fed = side "prefilter.off" (field p "off") in
    let exact_fed = side "prefilter.exact" (field p "exact") in
    (match member "online" p with
    | Some online ->
      ignore (side "prefilter.online" online);
      ignore (as_num "prefilter.speedup_online" (field p "speedup_online"))
    | None -> ());
    if exact_fed > off_fed then
      bad "prefilter: exact side fed more events than the unfiltered run";
    ignore (as_num "prefilter.speedup_exact" (field p "speedup_exact"));
    if not (as_bool "prefilter.verdicts_match" (field p "verdicts_match")) then
      bad "prefilter: verdicts diverged between filter modes"

(* The arena section is the zero-copy ingestion axis: the packed path
   must report the same verdict and the same events_fed as the boxed
   reference, and may never allocate more than it. *)
let check_arena = function
  | Null -> ()
  | a ->
    if as_num "arena.events" (field a "events") <= 0. then
      bad "arena: events <= 0";
    ignore (as_num "arena.threads" (field a "threads"));
    ignore (as_num "arena.vars" (field a "vars"));
    if as_num "arena.file_bytes" (field a "file_bytes") < 0. then
      bad "arena: negative file_bytes";
    let side where s =
      if as_num (where ^ ".seconds") (field s "seconds") < 0. then
        bad "%s: negative seconds" where;
      if as_num (where ^ ".events_per_sec") (field s "events_per_sec") < 0.
      then bad "%s: negative events_per_sec" where;
      if as_num (where ^ ".events_fed") (field s "events_fed") < 0. then
        bad "%s: negative events_fed" where;
      let alloc =
        as_num (where ^ ".allocated_mwords") (field s "allocated_mwords")
      in
      if alloc < 0. then bad "%s: negative allocated_mwords" where;
      alloc
    in
    let boxed_alloc = side "arena.boxed" (field a "boxed") in
    let packed_alloc = side "arena.packed" (field a "packed") in
    if as_num "arena.speedup" (field a "speedup") < 0. then
      bad "arena: negative speedup";
    ignore (as_num "arena.alloc_reduction" (field a "alloc_reduction"));
    if not (as_bool "arena.verdicts_match" (field a "verdicts_match")) then
      bad "arena: packed verdict diverged from boxed";
    if not (as_bool "arena.reports_match" (field a "reports_match")) then
      bad "arena: packed report diverged from boxed";
    if packed_alloc > boxed_alloc then
      bad "arena: packed path allocated more than boxed (%.3f > %.3f Mwords)"
        packed_alloc boxed_alloc

(* The shards section is the single-trace chunk-parallelism axis: every
   sharded run must agree with the sequential run of its case — same
   verdict, same report — and the boundary/repair accounting must be
   internally consistent (every planned cut is either quiescent or
   seamed, repaired events only arise from seamed cuts, and the
   repaired-event count matches the emitted fraction).  On runs big
   enough for the measurement to mean anything (the 1M+ acceptance
   regime; tiny cram-scale runs are pure noise) the repair fraction is
   the regression gate: boundary-summary seeding must keep the re-fed
   share at or below 10% even on the adversarial case — the whole point
   of repairing non-quiescent cuts instead of replaying them. *)
let repair_bound = 0.10
let repair_bound_min_events = 1_000_000.

let check_shards = function
  | Null -> ()
  | s ->
    let cases = as_list "shards.cases" (field s "cases") in
    if cases = [] then bad "shards: no cases";
    List.iteri
      (fun i c ->
        let where = Printf.sprintf "shards.cases[%d]" i in
        ignore (as_num (where ^ ".threads") (field c "threads"));
        let events = as_num (where ^ ".events") (field c "events") in
        if events <= 0. then bad "%s: events <= 0" where;
        let seq = field c "sequential" in
        if as_num (where ^ ".sequential.seconds") (field seq "seconds") < 0.
        then bad "%s.sequential: negative seconds" where;
        if as_num (where ^ ".sequential.events_per_sec")
             (field seq "events_per_sec")
           < 0.
        then bad "%s.sequential: negative events_per_sec" where;
        let runs = as_list (where ^ ".runs") (field c "runs") in
        if runs = [] then bad "%s: no sharded runs" where;
        List.iteri
          (fun k r ->
            let where = Printf.sprintf "%s.runs[%d]" where k in
            if as_num (where ^ ".shards") (field r "shards") < 2. then
              bad "%s: shards < 2" where;
            if as_num (where ^ ".seconds") (field r "seconds") < 0. then
              bad "%s: negative seconds" where;
            if as_num (where ^ ".events_per_sec") (field r "events_per_sec")
               < 0.
            then bad "%s: negative events_per_sec" where;
            if as_num (where ^ ".speedup") (field r "speedup") < 0. then
              bad "%s: negative speedup" where;
            let chunks = as_num (where ^ ".chunks") (field r "chunks") in
            if chunks < 1. then bad "%s: chunks < 1" where;
            let quiescent =
              as_num (where ^ ".quiescent_cuts") (field r "quiescent_cuts")
            in
            let seamed =
              as_num (where ^ ".seamed_cuts") (field r "seamed_cuts")
            in
            if quiescent < 0. || seamed < 0. then
              bad "%s: negative cut counters" where;
            if chunks <> quiescent +. seamed +. 1. then
              bad "%s: chunks <> quiescent + seamed + 1 (%.0f <> %.0f + %.0f \
                   + 1)"
                where chunks quiescent seamed;
            let repaired =
              as_num (where ^ ".repaired_events") (field r "repaired_events")
            in
            if repaired < 0. then bad "%s: negative repaired_events" where;
            let repair =
              as_num (where ^ ".repair_fraction") (field r "repair_fraction")
            in
            if repair < 0. || repair > 1. then
              bad "%s: repair_fraction outside [0, 1]" where;
            if Float.abs (repair -. (repaired /. events)) > 1e-3 then
              bad "%s: repair_fraction inconsistent with repaired_events \
                   (%.4f vs %.0f/%.0f)"
                where repair repaired events;
            if seamed = 0. && repaired > 0. then
              bad "%s: repaired events without a seamed cut" where;
            if as_num (where ^ ".tainted_events") (field r "tainted_events")
               < 0.
            then bad "%s: negative tainted_events" where;
            if events >= repair_bound_min_events && repair > repair_bound then
              bad
                "%s: repair_fraction %.4f exceeds the %.2f regression bound"
                where repair repair_bound;
            let util = as_list (where ^ ".utilization") (field r "utilization") in
            if List.length util <> int_of_float chunks then
              bad "%s: utilization arity <> chunks" where;
            List.iteri
              (fun j u ->
                let u = as_num (Printf.sprintf "%s.utilization[%d]" where j) u in
                if u < 0. || u > 1. then
                  bad "%s.utilization[%d]: outside [0, 1]" where j)
              util;
            if not (as_bool (where ^ ".verdicts_match") (field r "verdicts_match"))
            then bad "%s: sharded verdict diverged from sequential" where;
            if not (as_bool (where ^ ".reports_match") (field r "reports_match"))
            then bad "%s: sharded report diverged from sequential" where)
          runs)
      cases

(* The scheduler section times the work-stealing scheduler on the
   adversarial case.  It must agree with the sequential report byte for
   byte, and its accounting must be internally consistent (exactly one
   utilization entry per domain, each in [0, 1]).  The static
   one-chunk-per-domain side and the steal-vs-static ratio are optional:
   the static executor is gone, but committed artifacts still carry
   them, and a static side that is present must still match. *)
let check_scheduler = function
  | Null -> ()
  | s ->
    ignore (as_num "scheduler.threads" (field s "threads"));
    if as_num "scheduler.events" (field s "events") <= 0. then
      bad "scheduler: events <= 0";
    let domains = as_num "scheduler.domains" (field s "domains") in
    if domains < 1. then bad "scheduler: domains < 1";
    let seq = field s "sequential" in
    if as_num "scheduler.sequential.seconds" (field seq "seconds") < 0. then
      bad "scheduler.sequential: negative seconds";
    if
      as_num "scheduler.sequential.events_per_sec"
        (field seq "events_per_sec")
      < 0.
    then bad "scheduler.sequential: negative events_per_sec";
    let side name =
      let v = field s name in
      let where = "scheduler." ^ name in
      if as_num (where ^ ".seconds") (field v "seconds") < 0. then
        bad "%s: negative seconds" where;
      if as_num (where ^ ".events_per_sec") (field v "events_per_sec") < 0.
      then bad "%s: negative events_per_sec" where;
      if as_num (where ^ ".speedup") (field v "speedup") < 0. then
        bad "%s: negative speedup" where;
      if not (as_bool (where ^ ".verdicts_match") (field v "verdicts_match"))
      then bad "%s: verdict diverged from sequential" where;
      if not (as_bool (where ^ ".reports_match") (field v "reports_match"))
      then bad "%s: report diverged from sequential" where;
      v
    in
    if optional s "static" <> None then ignore (side "static");
    let steal = side "steal" in
    if as_num "scheduler.steal.chunks" (field steal "chunks") < 1. then
      bad "scheduler.steal: chunks < 1";
    List.iter
      (fun k ->
        if as_num ("scheduler.steal." ^ k) (field steal k) < 0. then
          bad "scheduler.steal: negative %s" k)
      [ "steals"; "failed_steals"; "injected" ];
    let util = as_list "scheduler.steal.utilization" (field steal "utilization") in
    if List.length util <> int_of_float domains then
      bad "scheduler.steal: utilization arity <> domains";
    List.iteri
      (fun j u ->
        let u = as_num (Printf.sprintf "scheduler.steal.utilization[%d]" j) u in
        if u < 0. || u > 1. then
          bad "scheduler.steal.utilization[%d]: outside [0, 1]" j)
      util;
    match optional s "steal_vs_static" with
    | Some r when as_num "scheduler.steal_vs_static" r <= 0. ->
      bad "scheduler: steal_vs_static <= 0"
    | _ -> ()

(* The observability section is the live-telemetry axis.  The exporter
   half must have served at least one validator-clean exposition, and —
   on runs big enough for the measurement to mean anything (the 1M+
   acceptance regime; tiny cram-scale runs are pure noise) — live
   scraping may not cost more than 3% throughput.  The flight half must
   leave the run's verdict untouched and every witness bundle's slice
   must have replayed to the same verdict. *)
let exporter_overhead_bound_pct = 3.0
let exporter_bound_min_events = 1_000_000.

let check_observability = function
  | Null -> ()
  | o ->
    let ex = field o "exporter" in
    let events = as_num "observability.exporter.events" (field ex "events") in
    if events <= 0. then bad "observability.exporter: events <= 0";
    if
      as_num "observability.exporter.baseline_events_per_sec"
        (field ex "baseline_events_per_sec")
      <= 0.
    then bad "observability.exporter: baseline_events_per_sec <= 0";
    if
      as_num "observability.exporter.scraped_events_per_sec"
        (field ex "scraped_events_per_sec")
      <= 0.
    then bad "observability.exporter: scraped_events_per_sec <= 0";
    let overhead =
      as_num "observability.exporter.overhead_pct" (field ex "overhead_pct")
    in
    if Float.is_nan overhead then
      bad "observability.exporter: overhead_pct is NaN";
    if events >= exporter_bound_min_events && overhead > exporter_overhead_bound_pct
    then
      bad
        "observability.exporter: live scraping cost %.2f%% throughput (bound \
         %.0f%%)"
        overhead exporter_overhead_bound_pct;
    if as_num "observability.exporter.scrapes" (field ex "scrapes") < 1. then
      bad "observability.exporter: no successful scrapes";
    if
      not
        (as_bool "observability.exporter.scrapes_valid"
           (field ex "scrapes_valid"))
    then bad "observability.exporter: exposition failed OpenMetrics validation";
    let fl = field o "flight" in
    if as_num "observability.flight.events" (field fl "events") <= 0. then
      bad "observability.flight: events <= 0";
    if
      not
        (as_bool "observability.flight.verdicts_match"
           (field fl "verdicts_match"))
    then bad "observability.flight: recorder changed the run's verdict";
    let windows = as_list "observability.flight.windows" (field fl "windows") in
    if windows = [] then bad "observability.flight: no window probes";
    let any_replayable = ref false in
    List.iteri
      (fun i w ->
        let where = Printf.sprintf "observability.flight.windows[%d]" i in
        if as_num (where ^ ".window") (field w "window") < 1. then
          bad "%s: window < 1" where;
        if as_num (where ^ ".off_events_per_sec") (field w "off_events_per_sec")
           <= 0.
        then bad "%s: off_events_per_sec <= 0" where;
        if as_num (where ^ ".on_events_per_sec") (field w "on_events_per_sec")
           <= 0.
        then bad "%s: on_events_per_sec <= 0" where;
        ignore (as_num (where ^ ".overhead_pct") (field w "overhead_pct"));
        if as_num (where ^ ".slice_events") (field w "slice_events") < 0. then
          bad "%s: negative slice_events" where;
        (* a ring too small to retain a quiescent cut degrades the
           witness to context-only — allowed; a replayable slice that
           fails to reproduce the violation is not *)
        let replayable = as_bool (where ^ ".replayable") (field w "replayable") in
        if replayable then any_replayable := true;
        if
          replayable
          && not (as_bool (where ^ ".replay_matches") (field w "replay_matches"))
        then bad "%s: witness slice failed to reproduce the violation" where)
      windows;
    if not !any_replayable then
      bad "observability.flight: no window probe produced a replayable slice"

let check_root j =
  let schema = as_str "schema" (field j "schema") in
  if schema <> "aerodrome-bench/10" then bad "unknown schema %S" schema;
  ignore (as_num "scale" (field j "scale"));
  ignore (as_num "timeout" (field j "timeout"));
  if as_num "jobs" (field j "jobs") < 1. then bad "jobs < 1";
  let tables = as_list "tables" (field j "tables") in
  let micro = as_list "micro" (field j "micro") in
  List.iteri
    (fun i t ->
      let where = Printf.sprintf "tables[%d]" i in
      ignore (as_num (where ^ ".table") (field t "table"));
      if as_num (where ^ ".wall_seconds") (field t "wall_seconds") < 0. then
        bad "%s: negative wall_seconds" where;
      let rows = as_list (where ^ ".rows") (field t "rows") in
      if rows = [] then bad "%s: empty rows" where;
      List.iteri
        (fun k r -> check_row ~where:(Printf.sprintf "%s.rows[%d]" where k) r)
        rows)
    tables;
  List.iteri
    (fun i r -> check_row ~where:(Printf.sprintf "micro[%d]" i) r)
    micro;
  check_parallel (field j "parallel");
  check_telemetry (field j "telemetry");
  check_reclaim (field j "reclaim");
  check_prefilter (field j "prefilter");
  check_arena (field j "arena");
  check_shards (field j "shards");
  check_scheduler (field j "scheduler");
  check_observability (field j "observability");
  if tables = [] && micro = [] && field j "parallel" = Null then
    bad "no tables and no micro results"

let () =
  let path =
    match Sys.argv with
    | [| _; path |] -> path
    | _ ->
      prerr_endline "usage: validate_json FILE";
      exit 2
  in
  let contents =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match check_root (parse_exn contents) with
  | () -> print_endline "ok"
  | exception Bad msg ->
    Printf.eprintf "%s: %s\n" path msg;
    exit 1
  | exception Obs.Json.Parse_error msg ->
    Printf.eprintf "%s: %s\n" path msg;
    exit 1
