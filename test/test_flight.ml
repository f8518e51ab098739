(* Violation witness bundles.

   The differential property the observability layer rests on: for
   every violating trace, a flight-recorded run's witness slice must
   reproduce the violation under an independent re-run of the on-disk
   file (the same ingestion path `rapid check` uses): a violation at
   exactly [v - p], same event, same check site.  The traces come from
   the benchmark corpus (which plants a violation in every fifth trace)
   plus generator traces with injected cycles, up to 16 threads, where
   the latest quiescent position can lie far before the violation. *)

open Traces

let check = Alcotest.check

let aerodrome : Aerodrome.Checker.t = (module Aerodrome.Opt)

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
      [
        (0.3, 12_000, 4);
        (0.7, 12_000, 6);
        (0.95, 8_000, 3);
        (0.8, 20_000, 16);
      ]
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
  List.iter
    (fun (name, tr) ->
      in_fresh_dir (fun dir ->
          let r = Analysis.Runner.run ~flight:dir aerodrome tr in
          let v =
            match r.Analysis.Runner.outcome with
            | Analysis.Runner.Verdict (Some v) -> v
            | _ -> Alcotest.fail (name ^ ": expected a violation")
          in
          let json_path = Filename.concat dir "trace.witness.json" in
          check Alcotest.bool (name ^ ": witness emitted") true
            (Sys.file_exists json_path);
          let doc = json_of_file json_path in
          check Alcotest.bool (name ^ ": schema") true
            (Obs.Json.member "schema" doc
            = Some (Obs.Json.Str "aerodrome-witness/2"));
          check Alcotest.int
            (name ^ ": witness records the violation index")
            v.Aerodrome.Violation.index
            (jnum (Option.get (Obs.Json.member "violation" doc)) "index");
          let window_j =
            match Obs.Json.member "window" doc with
            | Some (Obs.Json.Obj _ as w) -> w
            | _ -> Alcotest.fail (name ^ ": bundle is not replayable")
          in
          let start = jnum window_j "start" in
          let expect_at = v.Aerodrome.Violation.index - start in
          check Alcotest.int
            (name ^ ": expected_violation_index = v - p")
            expect_at
            (jnum window_j "expected_violation_index");
          check Alcotest.int (name ^ ": slice covers [p, v]") (expect_at + 1)
            (jnum window_j "events");
          (* the bundle's own in-process replay must have agreed *)
          (match Obs.Json.member "replay" window_j with
          | Some replay_j ->
            check Alcotest.bool (name ^ ": bundle replay matches") true
              (Obs.Json.member "matches" replay_j = Some (Obs.Json.Bool true))
          | None -> Alcotest.fail (name ^ ": window without replay"));
          (* independent differential: re-run the on-disk slice
             through the file-checking path and pin the report *)
          let slice = Filename.concat dir "trace.slice.bin" in
          let rr = Analysis.Runner.run_stream aerodrome slice in
          match rr.Analysis.Runner.outcome with
          | Analysis.Runner.Verdict (Some rv) ->
            check Alcotest.int (name ^ ": replay index") expect_at
              rv.Aerodrome.Violation.index;
            check Alcotest.bool (name ^ ": replay event") true
              (Event.equal rv.Aerodrome.Violation.event
                 v.Aerodrome.Violation.event);
            check Alcotest.bool (name ^ ": replay site") true
              (rv.Aerodrome.Violation.site = v.Aerodrome.Violation.site)
          | _ ->
            Alcotest.fail (name ^ ": slice replay did not report a violation")))
    (violating_traces ())

(* A violation inside a chunk the sharded run skips — its range is
   re-fed by an earlier owner's repair, so no checker runs on it —
   still gets a replay-verified witness, byte for byte the bundle the
   sequential run writes: both are cut from the same fed words. *)
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
          Analysis.Runner.run ?sched ~shards ~flight:dir aerodrome tr
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

(* A prefiltered file run cuts its witness from the filtered stream:
   the sequential run filters the input again, the sharded run reads
   the arena it filtered into.  Both must write the same bundle, and
   its slice must replay to the violation, from a binary file and from
   its text twin alike. *)
let test_witness_prefiltered_files () =
  let tr =
    Workloads.Generator.generate
      {
        Workloads.Generator.default with
        events = 20_000;
        threads = 8;
        plan = Workloads.Generator.Violate_at 0.7;
        seed = 11L;
      }
  in
  in_fresh_dir (fun inputs ->
      let bin = Filename.concat inputs "t.bin" in
      let std = Filename.concat inputs "t.std" in
      Binfmt.write_file bin tr;
      Parser.to_file std tr;
      let bundle ?sched ~shards path =
        in_fresh_dir (fun dir ->
            let r =
              Analysis.Runner.run_stream ?sched ~shards
                ~prefilter:Analysis.Runner.Exact ~flight:dir aerodrome path
            in
            let v =
              match r.Analysis.Runner.outcome with
              | Analysis.Runner.Verdict (Some v) -> v
              | _ -> Alcotest.fail (path ^ ": expected a violation")
            in
            (* the case is vacuous unless the filter dropped events *)
            check Alcotest.bool (path ^ ": filtered") true
              (r.Analysis.Runner.events_fed < Trace.length tr);
            let read suffix =
              In_channel.with_open_bin
                (Filename.concat dir (Analysis.Witness.bundle_name path ^ suffix))
                In_channel.input_all
            in
            (v, read ".witness.json", read ".slice.bin"))
      in
      List.iter
        (fun path ->
          let v, json, slice = bundle ~shards:1 path in
          let _, sharded_json, sharded_slice =
            Parallel.Deque.with_scheduler 2 (fun sched ->
                bundle ~sched ~shards:8 path)
          in
          check Alcotest.string (path ^ ": sharded json") json sharded_json;
          check Alcotest.string (path ^ ": sharded slice") slice sharded_slice;
          let window =
            Option.get (Obs.Json.member "window" (Obs.Json.parse_exn json))
          in
          check Alcotest.bool (path ^ ": bundle replay matches") true
            (Option.bind (Obs.Json.member "replay" window)
               (Obs.Json.member "matches")
            = Some (Obs.Json.Bool true));
          check Alcotest.int (path ^ ": v - p")
            (v.Aerodrome.Violation.index - jnum window "start")
            (jnum window "expected_violation_index"))
        [ bin; std ])

(* The per-thread frontier and the cut on a hand-made trace: T0 closes
   a transaction, unary T2 runs outside any, then T0 and T1 run the
   rho2 cycle, which closes at T0's read of y (position 9).  The
   latest position with no transaction open is 4, T0's second begin;
   T3 only appears after the violation. *)
let test_witness_frontier () =
  let open Event in
  let tr =
    Trace.of_events
      [
        begin_ 0; write 0 5; end_ 0; write 2 3;
        begin_ 0; begin_ 1; write 0 0; read 1 0; write 1 1; read 0 1;
        end_ 0; end_ 1; begin_ 3; end_ 3;
      ]
  in
  in_fresh_dir (fun dir ->
      let r = Analysis.Runner.run ~flight:dir aerodrome tr in
      (match r.Analysis.Runner.outcome with
      | Analysis.Runner.Verdict (Some v) ->
        check Alcotest.int "violation index" 9 v.Aerodrome.Violation.index
      | _ -> Alcotest.fail "expected a violation");
      let doc = json_of_file (Filename.concat dir "trace.witness.json") in
      let window = Option.get (Obs.Json.member "window" doc) in
      check Alcotest.int "start" 4 (jnum window "start");
      check Alcotest.int "events" 6 (jnum window "events");
      check Alcotest.int "expected_violation_index" 5
        (jnum window "expected_violation_index");
      let threads =
        match Obs.Json.member "threads" doc with
        | Some (Obs.Json.List l) -> l
        | _ -> Alcotest.fail "witness json: missing threads"
      in
      check Alcotest.int "one entry per thread" 4 (List.length threads);
      List.iteri
        (fun t (depth, last) ->
          let j = List.nth threads t in
          check Alcotest.int (Printf.sprintf "T%d tid" t) t (jnum j "tid");
          check Alcotest.int
            (Printf.sprintf "T%d open_depth" t)
            depth (jnum j "open_depth");
          match (last, Obs.Json.member "last_index" j) with
          | None, Some Obs.Json.Null -> ()
          | Some l, _ ->
            check Alcotest.int (Printf.sprintf "T%d last_index" t) l
              (jnum j "last_index")
          | None, _ ->
            Alcotest.fail (Printf.sprintf "T%d: last_index should be null" t))
        [ (1, Some 9); (1, Some 8); (0, Some 3); (0, None) ];
      let rr =
        Analysis.Runner.run_stream aerodrome
          (Filename.concat dir "trace.slice.bin")
      in
      match rr.Analysis.Runner.outcome with
      | Analysis.Runner.Verdict (Some rv) ->
        check Alcotest.int "slice replays at v - p" 5
          rv.Aerodrome.Violation.index
      | _ -> Alcotest.fail "slice replay did not report a violation")

(* Bundles are named by the whole input path, escaped so that distinct
   paths never share a name and a plain file name keeps its own. *)
let test_bundle_names () =
  let name = Analysis.Witness.bundle_name in
  check Alcotest.string "plain name kept" "bad.std" (name "bad.std");
  check Alcotest.string "slash escaped" "a%2Ft.std" (name "a/t.std");
  check Alcotest.string "percent escaped" "a%252Ft.std" (name "a%2Ft.std");
  let paths =
    [ "t.std"; "a/t.std"; "b/t.std"; "a%2Ft.std"; "a%t.std"; "/a/t.std";
      "./t.std"; "a//t.std" ]
  in
  List.iteri
    (fun i p ->
      List.iteri
        (fun j q ->
          if i < j then
            check Alcotest.bool
              (Printf.sprintf "%S and %S differ" p q)
              false
              (String.equal (name p) (name q)))
        paths;
      check Alcotest.bool (p ^ ": no slash in the name") false
        (String.contains (name p) '/'))
    paths

let test_no_bundle_when_serializable () =
  in_fresh_dir (fun dir ->
      let r =
        Analysis.Runner.run ~flight:dir aerodrome Workloads.Scenarios.rho1
      in
      check Alcotest.bool "serializable" false (Analysis.Runner.violating r);
      check Alcotest.bool "no bundle written" false
        (Sys.file_exists (Filename.concat dir "trace.witness.json")))

let suite =
  ( "flight",
    [
      Alcotest.test_case "witness differential" `Slow test_witness_differential;
      Alcotest.test_case "witness: violation in a skipped chunk" `Quick
        test_witness_skipped_chunk;
      Alcotest.test_case "witness: prefiltered files, sharded and not" `Quick
        test_witness_prefiltered_files;
      Alcotest.test_case "witness: per-thread frontier and cut" `Quick
        test_witness_frontier;
      Alcotest.test_case "bundle names escape the whole path" `Quick
        test_bundle_names;
      Alcotest.test_case "serializable runs emit nothing" `Quick
        test_no_bundle_when_serializable;
    ] )
