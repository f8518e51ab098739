(* The prefilter must be invisible to the checkers: on every trace the
   reduced stream has a conflict-serializability violation iff the
   original does — for all three AeroDrome algorithms, composed with
   reclamation and file ingestion.  Structural properties: filtering is
   idempotent, preserves well-formedness, and never grows a trace. *)

open Traces

let check = Alcotest.check

let tmp suffix body =
  let path = Filename.temp_file "aerodrome_prefilter" suffix in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> body path)

let events_of tr = Trace.to_list tr

let violating_opt tr = Aerodrome.Checker.run (module Aerodrome.Opt) tr <> None

let checkers : (string * Aerodrome.Checker.t) list =
  [
    ("basic", (module Aerodrome.Basic));
    ("reduced", (module Aerodrome.Reduced));
    ("opt", (module Aerodrome.Opt));
  ]

let corpus ?(traces = 170) () =
  (* 170 traces x 3 checkers = 510 differential instances *)
  Workloads.Corpus.generate ~traces ~events_total:120_000 ()

(* --- structural properties --- *)

(* The filter is a pure per-event function of whole-trace statistics
   plus retained-only counters, so a second pass changes nothing. *)
let test_idempotent () =
  List.iter
    (fun (name, tr) ->
      let once, _ = Prefilter.run_trace `Exact tr in
      let twice, c2 = Prefilter.run_trace `Exact once in
      check Alcotest.bool
        (name ^ ": second exact pass drops nothing")
        true
        (events_of once = events_of twice);
      check Alcotest.int (name ^ ": second exact pass elides 0") 0
        (Prefilter.elided c2))
    (corpus ~traces:60 ())

let test_wellformed_preserved () =
  List.iter
    (fun (name, tr) ->
      let reduced, _ = Prefilter.run_trace `Exact tr in
      check Alcotest.bool
        (name ^ ": reduced trace well-formed")
        true
        (Wellformed.is_wellformed reduced))
    (corpus ~traces:60 ())

let test_counts_consistent () =
  List.iter
    (fun (name, tr) ->
      let reduced, c = Prefilter.run_trace `Exact tr in
      check Alcotest.int
        (name ^ ": events_in is the trace length")
        (Trace.length tr) c.Prefilter.events_in;
      check Alcotest.int
        (name ^ ": kept is the reduced length")
        (Trace.length reduced) c.Prefilter.kept;
      check Alcotest.int
        (name ^ ": kept + elided = events_in")
        c.Prefilter.events_in
        (c.Prefilter.kept + Prefilter.elided c))
    (corpus ~traces:40 ())

(* Every run filters packed words; the boxed [feed] is the oracle.  The
   two keep the same events with the same counters, and [finish] emits
   nothing, since nothing is buffered. *)
let test_packed_matches_boxed () =
  List.iter
    (fun (name, tr) ->
      let reduced, c = Prefilter.run_trace `Exact tr in
      let pf = Prefilter.create (Exact (Varstats.of_trace tr)) in
      let kept = ref [] in
      Trace.iter
        (fun e ->
          Prefilter.feed_packed pf (Packed.of_event e) (fun w ->
              kept := w :: !kept))
        tr;
      Prefilter.finish_packed pf (fun _ ->
          Alcotest.failf "%s: finish emitted an event" name);
      check
        Alcotest.(list int)
        (name ^ ": packed keeps the boxed events")
        (List.map Packed.of_event (events_of reduced))
        (List.rev !kept);
      check Alcotest.bool (name ^ ": same counters") true
        (Prefilter.counts pf = c))
    (corpus ~traces:40 ())

(* --- verdict preservation: >= 500 instances --- *)

let test_differential () =
  List.iter
    (fun (tname, tr) ->
      let exact, _ = Prefilter.run_trace `Exact tr in
      List.iter
        (fun (cname, checker) ->
          let where = tname ^ "/" ^ cname in
          let v = Aerodrome.Checker.run checker tr <> None in
          check Alcotest.bool (where ^ ": exact verdict") v
            (Aerodrome.Checker.run checker exact <> None))
        checkers)
    (corpus ())

(* the mixed bench workload: well-formed, substantially reducible, and
   verdict-preserving *)
let test_mixed_workload () =
  let tr = Workloads.Corpus.mixed ~events_total:60_000 () in
  check Alcotest.bool "mixed trace well-formed" true
    (Wellformed.is_wellformed tr);
  let reduced, c = Prefilter.run_trace `Exact tr in
  let frac =
    float_of_int (Prefilter.elided c) /. float_of_int c.Prefilter.events_in
  in
  check Alcotest.bool "mixed trace >= 30% reducible" true (frac >= 0.30);
  check Alcotest.bool "mixed verdict preserved" (violating_opt tr)
    (violating_opt reduced)

(* --- runner composition: prefilter x reclaim x ingestion --- *)

let test_runner_composition () =
  let traces =
    [
      ("atomic", Workloads.Corpus.mixed ~events_total:20_000 ());
      ( "violating",
        Workloads.Generator.generate
          {
            Workloads.Generator.default with
            events = 20_000;
            threads = 6;
            vars = 2_000;
            plan = Workloads.Generator.Violate_at 0.6;
          } );
    ]
  in
  List.iter
    (fun (tname, tr) ->
      let base = violating_opt tr in
      (* materialized run *)
      let r =
        Analysis.Runner.run ~prefilter:Analysis.Runner.Exact
          (module Aerodrome.Opt) tr
      in
      check Alcotest.bool
        (tname ^ "/run exact: verdict")
        base
        (Analysis.Runner.violating r);
      (* file-based runs: text and binary (v3 footer), reclaim on and
         off *)
      let stream_cases path =
        List.iter
          (fun (reclaim, pf, label) ->
            let r =
              Analysis.Runner.run_stream ~reclaim ~prefilter:pf
                (module Aerodrome.Opt) path
            in
            check Alcotest.bool
              (tname ^ "/" ^ Filename.extension path ^ " " ^ label
             ^ ": verdict")
              base
              (Analysis.Runner.violating r))
          [
            (true, Analysis.Runner.Auto, "reclaim+auto");
            (false, Analysis.Runner.Auto, "noreclaim+auto");
            (true, Analysis.Runner.Exact, "reclaim+exact");
            (false, Analysis.Runner.Exact, "noreclaim+exact");
          ]
      in
      tmp ".std" (fun path ->
          Parser.to_file path tr;
          stream_cases path);
      tmp ".bin" (fun path ->
          Binfmt.write_file path tr;
          stream_cases path);
      (* v1 binary: no footer — Auto runs unfiltered, Exact pre-scans
         and feeds what the materialized exact run feeds *)
      tmp ".bin" (fun path ->
          Binfmt.write_file ~last_use:false path tr;
          List.iter
            (fun (pf, label, fed) ->
              let r =
                Analysis.Runner.run_stream ~prefilter:pf
                  (module Aerodrome.Opt) path
              in
              check Alcotest.bool
                (Printf.sprintf "%s/v1 binary %s: verdict" tname label)
                base
                (Analysis.Runner.violating r);
              check Alcotest.int
                (Printf.sprintf "%s/v1 binary %s: events fed" tname label)
                fed r.Analysis.Runner.events_fed)
            [
              (Analysis.Runner.Auto, "auto", Trace.length tr);
              (Analysis.Runner.Exact, "exact", r.Analysis.Runner.events_fed);
            ]))
    traces

(* --- windowing composition ---

   Filtering is defined on whole traces; a window sees different accessor
   sets, so filter and window do not commute in general (a variable
   multi-threaded in the full trace can be thread-local inside the
   window).  What must hold: (1) checking a filtered window agrees with
   checking the window, for any window — the filter is sound on whatever
   trace it is given; (2) on the full-trace window the two orders agree
   exactly, since window repair does nothing and both sides filter the
   same trace. *)

let test_windowing () =
  let tr = Workloads.Corpus.mixed ~events_total:30_000 () in
  let n = Trace.length tr in
  List.iter
    (fun (start, len) ->
      let w = Transform.limit_window start len tr in
      let fw, _ = Prefilter.run_trace `Exact w in
      check Alcotest.bool
        (Printf.sprintf "window [%d,%d): filter preserves verdict" start
           (start + len))
        (violating_opt w) (violating_opt fw))
    [ (0, n / 2); (n / 4, n / 2); (n / 2, n / 2); (0, n) ];
  (* the full window is the identity, so the orders commute exactly *)
  let full = Transform.limit_window 0 n tr in
  let filter_then_window =
    Transform.limit_window 0 n (fst (Prefilter.run_trace `Exact tr))
  in
  let window_then_filter = fst (Prefilter.run_trace `Exact full) in
  check Alcotest.bool "full window: orders commute event-for-event" true
    (events_of filter_then_window = events_of window_then_filter)

(* hand-written soundness corner cases *)
let test_corner_cases () =
  let t tr = Parser.parse_string_exn tr in
  (* a read-only variable's reads carry no conflict even across threads *)
  let ro =
    t
      "t1|begin\n\
       t1|r(x)\n\
       t1|end\n\
       t2|begin\n\
       t2|r(x)\n\
       t2|end\n"
  in
  let reduced, c = Prefilter.run_trace `Exact ro in
  check Alcotest.int "read-only reads elided" 2 c.Prefilter.read_only;
  check Alcotest.bool "read-only reduction serializable" false
    (violating_opt reduced);
  (* rule (c) must NOT elide a re-read with an interposed foreign write:
     the classic rho cycle survives filtering *)
  let rho =
    t
      "t1|begin\n\
       t1|r(y)\n\
       t1|w(x)\n\
       t2|begin\n\
       t2|r(x)\n\
       t2|w(y)\n\
       t2|end\n\
       t1|r(y)\n\
       t1|end\n"
  in
  check Alcotest.bool "rho violating before" true (violating_opt rho);
  let reduced, _ = Prefilter.run_trace `Exact rho in
  check Alcotest.bool "rho violating after" true (violating_opt reduced);
  (* a lock held by two threads is never elided; one held by one thread is *)
  let locks =
    t
      "t1|acq(solo)\n\
       t1|rel(solo)\n\
       t1|acq(shared)\n\
       t1|rel(shared)\n\
       t2|acq(shared)\n\
       t2|rel(shared)\n"
  in
  let _, c = Prefilter.run_trace `Exact locks in
  check Alcotest.int "solo lock ops elided" 2 c.Prefilter.lock_local

let suite =
  ( "prefilter",
    [
      Alcotest.test_case "exact idempotent" `Quick test_idempotent;
      Alcotest.test_case "wellformed preserved" `Quick
        test_wellformed_preserved;
      Alcotest.test_case "counts consistent" `Quick test_counts_consistent;
      Alcotest.test_case "packed matches boxed" `Quick
        test_packed_matches_boxed;
      Alcotest.test_case "differential 500+" `Slow test_differential;
      Alcotest.test_case "mixed workload" `Quick test_mixed_workload;
      Alcotest.test_case "runner composition" `Slow test_runner_composition;
      Alcotest.test_case "windowing" `Quick test_windowing;
      Alcotest.test_case "corner cases" `Quick test_corner_cases;
    ] )
