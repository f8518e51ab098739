(* Streaming ingestion: Parser.fold_file / Binfmt.fold / Runner.run_stream
   must see exactly the events the materializing readers see, and must do
   so in constant memory — the point of the streaming path is analyzing
   traces larger than RAM. *)

open Traces

let check = Alcotest.check

let tmp suffix body =
  let path = Filename.temp_file "aerodrome_stream" suffix in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> body path)

let gen_trace ?(events = 4_000) ?(plan = Workloads.Generator.Atomic) () =
  Workloads.Generator.generate
    {
      Workloads.Generator.default with
      events;
      threads = 6;
      vars = 400;
      plan;
    }

(* --- Parser.fold_file --- *)

let test_fold_file_matches_parse () =
  let tr = gen_trace () in
  tmp ".std" (fun path ->
      Parser.to_file path tr;
      (* parse_file and fold_file intern names in the same order, so the
         event streams must be identical *)
      let materialized = Parser.parse_file_exn path in
      let domains = ref (0, 0, 0) in
      let rev =
        Parser.fold_file_exn path
          ~init:(fun ~threads ~locks ~vars ->
            domains := (threads, locks, vars);
            [])
          ~f:(fun acc e -> e :: acc)
      in
      check Alcotest.bool "same events" true
        (List.rev rev = Trace.to_list materialized);
      check
        Alcotest.(triple int int int)
        "domains announced before the events"
        ( Trace.threads materialized,
          Trace.locks materialized,
          Trace.vars materialized )
        !domains)

let test_fold_file_error () =
  tmp ".std" (fun path ->
      let oc = open_out path in
      output_string oc "t1|begin\nt1|nonsense(x)\n";
      close_out oc;
      match
        Parser.fold_file path
          ~init:(fun ~threads:_ ~locks:_ ~vars:_ -> ())
          ~f:(fun () _ -> ())
      with
      | Ok () -> Alcotest.fail "expected a parse error"
      | Error e -> check Alcotest.int "error line" 2 e.Parser.line)

(* --- Runner.run_stream --- *)

let violation_index (r : Analysis.Runner.result) =
  match r.outcome with
  | Analysis.Runner.Verdict (Some v) -> Some v.Aerodrome.Violation.index
  | _ -> None

let test_run_stream_matches_run () =
  let tr = gen_trace ~plan:(Workloads.Generator.Violate_at 0.5) () in
  let materialized = Analysis.Runner.run (module Aerodrome.Opt) tr in
  tmp ".std" (fun text ->
      tmp ".bin" (fun bin ->
          Parser.to_file text tr;
          Binfmt.write_file bin tr;
          let from_text =
            Analysis.Runner.run_stream (module Aerodrome.Opt) text
          in
          let from_bin =
            Analysis.Runner.run_stream (module Aerodrome.Opt) bin
          in
          (* text re-interning permutes ids, but the violation position is
             representation-independent *)
          check
            Alcotest.(option int)
            "text stream blames the same event"
            (violation_index materialized) (violation_index from_text);
          check
            Alcotest.(option int)
            "binary stream blames the same event"
            (violation_index materialized) (violation_index from_bin);
          check Alcotest.int "text events_fed" materialized.events_fed
            from_text.events_fed;
          check Alcotest.int "binary events_fed" materialized.events_fed
            from_bin.events_fed))

let test_run_stream_serializable () =
  let tr = gen_trace ~events:2_000 () in
  tmp ".std" (fun text ->
      Parser.to_file text tr;
      let r = Analysis.Runner.run_stream (module Aerodrome.Basic) text in
      check Alcotest.bool "serializable" false (Analysis.Runner.violating r);
      check Alcotest.int "all events fed" (Trace.length tr) r.events_fed)

(* The clock starts before the scan, and the scan honors the deadline:
   an exhausted budget stops it with no event fed. *)
let test_run_stream_text_timeout () =
  let tr = gen_trace ~events:20_000 () in
  tmp ".std" (fun text ->
      Parser.to_file text tr;
      let r =
        Analysis.Runner.run_stream ~timeout:0.0 (module Aerodrome.Opt) text
      in
      check Alcotest.bool "timed out" true
        (r.Analysis.Runner.outcome = Analysis.Runner.Timed_out);
      check Alcotest.int "no event fed" 0 r.events_fed)

(* --- constant peak heap --- *)

(* Feed a binary file through Binfmt.fold, sampling live words every 16k
   events.  Nothing but the checker state and the 64 KiB I/O chunk may
   accumulate, so a 12x longer trace must not show a materially larger
   peak (materializing it would add >200k words on its own). *)
let stream_peak_live_words path ~threads ~locks ~vars =
  let st = Aerodrome.Opt.create ~threads ~locks ~vars in
  let n = ref 0 in
  let peak = ref 0 in
  let sample () =
    Gc.full_major ();
    peak := max !peak (Gc.stat ()).Gc.live_words
  in
  let _header, () =
    Binfmt.fold path ~init:() ~f:(fun () e ->
        ignore (Aerodrome.Opt.feed st e);
        incr n;
        if !n land 16383 = 0 then sample ())
  in
  sample ();
  (!peak, Aerodrome.Opt.violation st)

let write_generated path events =
  let tr =
    Workloads.Generator.generate
      {
        Workloads.Generator.default with
        events;
        threads = 8;
        vars = 500;
      }
  in
  Binfmt.write_file path tr;
  (Trace.threads tr, Trace.locks tr, Trace.vars tr)
  (* [tr] is dead on return: only the file survives *)

let test_constant_heap () =
  let peak_for events =
    tmp ".bin" (fun path ->
        let threads, locks, vars = write_generated path events in
        stream_peak_live_words path ~threads ~locks ~vars)
  in
  let small, v_small = peak_for 20_000 in
  let large, v_large = peak_for 240_000 in
  check Alcotest.bool "both serializable" true
    (v_small = None && v_large = None);
  check Alcotest.bool
    (Printf.sprintf "peak live words constant in trace length (%d vs %d)"
       small large)
    true
    (large < small + 200_000)

let suite =
  ( "streaming",
    [
      Alcotest.test_case "fold_file = parse_file" `Quick
        test_fold_file_matches_parse;
      Alcotest.test_case "fold_file reports errors" `Quick test_fold_file_error;
      Alcotest.test_case "run_stream = run (text and binary)" `Quick
        test_run_stream_matches_run;
      Alcotest.test_case "run_stream on a serializable trace" `Quick
        test_run_stream_serializable;
      Alcotest.test_case "run_stream: timeout during the text scan" `Quick
        test_run_stream_text_timeout;
      Alcotest.test_case "constant peak heap" `Quick test_constant_heap;
    ] )
