(* Violation flight recorder and witness bundles.

   Ring-mechanics unit tests for Traces.Flight, then the differential
   property the observability layer rests on: for every violating trace,
   a flight-recorded run's witness slice — when the rings still cover a
   quiescent cut — must reproduce the violation under an independent
   re-run of the on-disk file (the same ingestion path `rapid check`
   uses): a violation at exactly [v - p], same event, same check site.
   The traces come from the benchmark corpus (which plants a violation
   in every fifth trace) plus generator traces with injected cycles, at
   both the conventional and a large ring window. *)

open Traces

let check = Alcotest.check

let aerodrome : Aerodrome.Checker.t = (module Aerodrome.Opt)

(* --- ring mechanics --- *)

let note_trace fl tr =
  Trace.iteri (fun i e -> Flight.note fl i (Packed.of_event e)) tr

let test_ring_basics () =
  let tr = Workloads.Scenarios.rho2 in
  let n = Trace.length tr in
  let fl = Flight.create ~window:64 ~threads:(Trace.threads tr) () in
  note_trace fl tr;
  check Alcotest.int "noted" n (Flight.noted fl);
  (* nothing evicted: the full trace is the retained window, and the
     trace's start is a quiescent cut by definition *)
  (match Flight.window fl with
  | Some (start, words) ->
    check Alcotest.int "window starts at 0" 0 start;
    check Alcotest.int "window covers the trace" n (Array.length words);
    Trace.iteri
      (fun i e ->
        check Alcotest.bool "window word decodes" true
          (Event.equal e (Packed.to_event words.(i))))
      tr
  | None -> Alcotest.fail "expected a replayable window");
  check Alcotest.bool "window < 1 refused" true
    (match Flight.create ~window:0 ~threads:2 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_ring_eviction () =
  (* a window of 1 retains only each thread's last event; whether a
     quiescent cut survives is workload-dependent, but bookkeeping must
     stay consistent *)
  let tr = Workloads.Scenarios.rho2 in
  let fl = Flight.create ~window:1 ~threads:(Trace.threads tr) () in
  note_trace fl tr;
  check Alcotest.int "noted" (Trace.length tr) (Flight.noted fl);
  for tid = 0 to Flight.threads fl - 1 do
    check Alcotest.bool "at most one retained" true (Flight.retained fl tid <= 1)
  done;
  match Flight.window fl with
  | None -> ()
  | Some (start, words) ->
    check Alcotest.bool "window inside the trace" true
      (start >= 0 && start + Array.length words <= Trace.length tr)

(* --- witness differential over violating corpus traces --- *)

let violating_traces () =
  let corpus =
    Workloads.Corpus.generate ~traces:10 ~events_total:40_000 ()
  in
  let planted =
    List.filter_map
      (fun (name, tr) ->
        match Aerodrome.Checker.run aerodrome tr with
        | Some _ -> Some (name, tr)
        | None -> None)
      corpus
  in
  let injected =
    List.map
      (fun (frac, events, threads) ->
        ( Printf.sprintf "violate-at-%.1f" frac,
          Workloads.Generator.generate
            {
              Workloads.Generator.default with
              events;
              threads;
              locks = 4;
              vars = 512;
              plan = Workloads.Generator.Violate_at frac;
            } ))
      [ (0.3, 12_000, 4); (0.7, 12_000, 6); (0.95, 8_000, 3) ]
  in
  planted @ injected

let in_fresh_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "flight-test-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let json_of_file path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Obs.Json.parse_exn text

let jnum j key =
  match Obs.Json.member key j with
  | Some (Obs.Json.Num f) -> int_of_float f
  | _ -> Alcotest.fail (Printf.sprintf "witness json: missing number %S" key)

let test_witness_differential () =
  let replayable_bundles = ref 0 in
  let context_only = ref 0 in
  List.iter
    (fun (name, tr) ->
      List.iter
        (fun window ->
          in_fresh_dir (fun dir ->
              let r =
                Analysis.Runner.run
                  ~flight:{ Analysis.Runner.flight_dir = dir; flight_window = window }
                  aerodrome tr
              in
              let v =
                match r.Analysis.Runner.outcome with
                | Analysis.Runner.Verdict (Some v) -> v
                | _ -> Alcotest.fail (name ^ ": expected a violation")
              in
              let json_path = Filename.concat dir "trace.witness.json" in
              check Alcotest.bool (name ^ ": witness emitted") true
                (Sys.file_exists json_path);
              let doc = json_of_file json_path in
              check Alcotest.int
                (name ^ ": witness records the violation index")
                v.Aerodrome.Violation.index
                (jnum (Option.get (Obs.Json.member "violation" doc)) "index");
              match Obs.Json.member "window" doc with
              | Some Obs.Json.Null | None ->
                (* rings evicted every quiescent cut: allowed, but there
                   must be no slice file claiming otherwise *)
                incr context_only;
                check Alcotest.bool (name ^ ": no stray slice") false
                  (Sys.file_exists (Filename.concat dir "trace.slice.bin"))
              | Some window_j ->
                incr replayable_bundles;
                let start = jnum window_j "start" in
                let expect_at = v.Aerodrome.Violation.index - start in
                check Alcotest.int
                  (name ^ ": expected_violation_index = v - p")
                  expect_at
                  (jnum window_j "expected_violation_index");
                (* the bundle's own in-process replay must have agreed *)
                (match Obs.Json.member "replay" window_j with
                | Some replay_j ->
                  check Alcotest.bool (name ^ ": bundle replay matches") true
                    (Obs.Json.member "matches" replay_j
                    = Some (Obs.Json.Bool true))
                | None -> Alcotest.fail (name ^ ": window without replay"));
                (* independent differential: re-run the on-disk slice
                   through the file-checking path and pin the report *)
                let slice = Filename.concat dir "trace.slice.bin" in
                let rr = Analysis.Runner.run_stream aerodrome slice in
                (match rr.Analysis.Runner.outcome with
                | Analysis.Runner.Verdict (Some rv) ->
                  check Alcotest.int (name ^ ": replay index") expect_at
                    rv.Aerodrome.Violation.index;
                  check Alcotest.bool (name ^ ": replay event") true
                    (Event.equal rv.Aerodrome.Violation.event
                       v.Aerodrome.Violation.event);
                  check Alcotest.bool (name ^ ": replay site") true
                    (rv.Aerodrome.Violation.site = v.Aerodrome.Violation.site)
                | _ ->
                  Alcotest.fail
                    (name ^ ": slice replay did not report a violation"))))
        [ Flight.default_window; 4096 ])
    (violating_traces ());
  check Alcotest.bool "at least one replayable bundle" true
    (!replayable_bundles > 0);
  (* informational: both outcomes should normally occur across the mix,
     but only replayability is a hard requirement *)
  ignore !context_only

(* A violation inside a chunk the sharded run skips — its range is
   re-fed by an earlier owner's repair, so no checker runs on it —
   still gets a replay-verified witness.  The bundle comes from the
   recorder of the owner whose repair found the violation; with a ring
   wide enough to keep the trace start, it is byte for byte the bundle
   the sequential run writes. *)
let test_witness_skipped_chunk () =
  let tr =
    Workloads.Generator.generate
      {
        Workloads.Generator.default with
        events = 6000;
        threads = 6;
        shape = Workloads.Generator.Anchored;
        plan = Workloads.Generator.Violate_at 0.6;
        seed = 5L;
      }
  in
  let n = Trace.length tr in
  let shards = 8 in
  let v =
    match Aerodrome.Checker.run aerodrome tr with
    | Some v -> v
    | None -> Alcotest.fail "anchored trace must violate"
  in
  (* the case is vacuous unless the violation's chunk is skipped *)
  let arena = Packed.Arena.create () in
  Trace.iteri (fun _ e -> Packed.Arena.push arena (Packed.of_event e)) tr;
  let plan = Aerodrome.Merge.plan ~threads:(Trace.threads tr) ~shards arena in
  let bounds = Aerodrome.Merge.bounds plan ~total:n in
  let seams = Aerodrome.Merge.seams plan ~total:n in
  let chunk = ref (-1) in
  Array.iteri
    (fun i (base, stop) ->
      if base <= v.Aerodrome.Violation.index && v.index < stop then chunk := i)
    bounds;
  check Alcotest.bool "violation inside a skipped chunk" false
    seams.(!chunk).Aerodrome.Merge.survives;
  let bundle ?sched () =
    in_fresh_dir (fun dir ->
        let r =
          Analysis.Runner.run ?sched ~shards
            ~flight:{ Analysis.Runner.flight_dir = dir; flight_window = n }
            aerodrome tr
        in
        check Alcotest.bool "violation reported" true
          (Analysis.Runner.violating r);
        let read name =
          let path = Filename.concat dir name in
          check Alcotest.bool (name ^ " written") true (Sys.file_exists path);
          In_channel.with_open_bin path In_channel.input_all
        in
        let json = read "trace.witness.json" in
        let slice = read "trace.slice.bin" in
        let rr =
          Analysis.Runner.run_stream aerodrome
            (Filename.concat dir "trace.slice.bin")
        in
        (json, slice, rr.Analysis.Runner.outcome))
  in
  let seq_json, seq_slice, _ = bundle () in
  let json, slice, replayed =
    Parallel.Deque.with_scheduler 2 (fun sched -> bundle ~sched ())
  in
  let doc = Obs.Json.parse_exn json in
  (match Obs.Json.member "window" doc with
  | Some (Obs.Json.Obj _ as w) -> (
    match Obs.Json.member "replay" w with
    | Some replay ->
      check Alcotest.bool "bundle replay matches" true
        (Obs.Json.member "matches" replay = Some (Obs.Json.Bool true))
    | None -> Alcotest.fail "window without replay")
  | _ -> Alcotest.fail "sharded witness is not replayable");
  (match replayed with
  | Analysis.Runner.Verdict (Some rv) ->
    check Alcotest.bool "slice replay: same event" true
      (Event.equal rv.Aerodrome.Violation.event v.Aerodrome.Violation.event);
    check Alcotest.bool "slice replay: same site" true
      (rv.Aerodrome.Violation.site = v.Aerodrome.Violation.site)
  | _ -> Alcotest.fail "slice replay did not report a violation");
  check Alcotest.string "witness json equals the sequential run's" seq_json
    json;
  check Alcotest.string "slice equals the sequential run's" seq_slice slice

let test_no_bundle_when_serializable () =
  in_fresh_dir (fun dir ->
      let r =
        Analysis.Runner.run
          ~flight:
            {
              Analysis.Runner.flight_dir = dir;
              flight_window = Flight.default_window;
            }
          aerodrome Workloads.Scenarios.rho1
      in
      check Alcotest.bool "serializable" false (Analysis.Runner.violating r);
      check Alcotest.bool "no bundle written" false
        (Sys.file_exists (Filename.concat dir "trace.witness.json")))

let suite =
  ( "flight",
    [
      Alcotest.test_case "ring basics" `Quick test_ring_basics;
      Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
      Alcotest.test_case "witness differential" `Slow test_witness_differential;
      Alcotest.test_case "witness: violation in a skipped chunk" `Quick
        test_witness_skipped_chunk;
      Alcotest.test_case "serializable runs emit nothing" `Quick
        test_no_bundle_when_serializable;
    ] )
