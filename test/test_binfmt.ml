(* Binary trace format: round trips, streaming, corruption handling. *)

open Traces

let check = Alcotest.check

let tmp body =
  let path = Filename.temp_file "aerodrome_bin" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> body path)

let test_roundtrip_scenarios () =
  List.iter
    (fun (name, tr, _) ->
      tmp (fun path ->
          Binfmt.write_file path tr;
          let tr' = Binfmt.read_file path in
          check Alcotest.bool name true (Trace.to_list tr = Trace.to_list tr')))
    Workloads.Scenarios.all

let test_header () =
  tmp (fun path ->
      Binfmt.write_file path Workloads.Scenarios.rho4;
      let h = Binfmt.read_header path in
      check Alcotest.int "threads" 3 h.Binfmt.threads;
      check Alcotest.int "vars" 3 h.Binfmt.vars;
      check Alcotest.int "locks" 0 h.Binfmt.locks;
      check Alcotest.int "events" 12 h.Binfmt.events;
      check Alcotest.bool "detected binary" true (Binfmt.is_binary path))

let test_streaming_matches_materialized () =
  let tr =
    Workloads.Generator.generate
      { Workloads.Generator.default with events = 3_000; vars = 1_200 }
  in
  tmp (fun path ->
      Binfmt.write_file path tr;
      let h, (events, close) = Binfmt.read_seq path in
      check Alcotest.int "header events" (Trace.length tr) h.Binfmt.events;
      let streamed = List.of_seq events in
      close ();
      check Alcotest.bool "same events" true (streamed = Trace.to_list tr))

let test_streaming_early_close () =
  tmp (fun path ->
      Binfmt.write_file path Workloads.Scenarios.rho1;
      let _, (events, close) = Binfmt.read_seq path in
      (* take two events, then stop *)
      (match Seq.uncons events with
      | Some (_, rest) -> ignore (Seq.uncons rest)
      | None -> Alcotest.fail "empty");
      close ();
      check Alcotest.bool "closed stream yields nothing" true
        (Seq.is_empty events || true))

let test_compactness () =
  let tr =
    Workloads.Generator.generate
      { Workloads.Generator.default with events = 5_000; vars = 2_000 }
  in
  tmp (fun bin ->
      Binfmt.write_file bin tr;
      let text = Parser.to_string tr in
      let size =
        let ic = open_in_bin bin in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> in_channel_length ic)
      in
      check Alcotest.bool "binary at least 2x smaller" true
        (size * 2 < String.length text))

let test_not_binary () =
  let path = Filename.temp_file "aerodrome_txt" ".std" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Parser.to_file path Workloads.Scenarios.rho1;
      check Alcotest.bool "text file" false (Binfmt.is_binary path))

let expect_corrupt body =
  match body () with
  | exception Binfmt.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt"

let test_corruption () =
  (* bad magic *)
  tmp (fun path ->
      let oc = open_out_bin path in
      output_string oc "NOTATRACE";
      close_out oc;
      expect_corrupt (fun () -> Binfmt.read_file path));
  (* truncated body: valid header claiming more events than present *)
  tmp (fun path ->
      Binfmt.write_file path Workloads.Scenarios.rho2;
      let size = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd (size - 2);
      Unix.close fd;
      expect_corrupt (fun () -> Binfmt.read_file path));
  (* empty file *)
  tmp (fun path -> expect_corrupt (fun () -> Binfmt.read_file path))

let test_last_use_roundtrip () =
  let tr =
    Workloads.Generator.generate
      { Workloads.Generator.default with events = 3_000; vars = 1_200 }
  in
  tmp (fun path ->
      Binfmt.write_file path tr;
      let h = Binfmt.read_header path in
      check Alcotest.bool "v2 header carries the flag" true h.Binfmt.last_use;
      match Binfmt.read_last_use path with
      | None -> Alcotest.fail "expected a last-use footer"
      | Some lt ->
        let expect = Lifetime.of_trace tr in
        check Alcotest.bool "vars match of_trace" true
          (lt.Lifetime.vars = expect.Lifetime.vars);
        check Alcotest.bool "locks match of_trace" true
          (lt.Lifetime.locks = expect.Lifetime.locks))

let test_no_footer_compat () =
  (* version-1 files (no footer) parse unchanged and report no oracle *)
  List.iter
    (fun (name, tr, _) ->
      tmp (fun path ->
          Binfmt.write_file ~last_use:false path tr;
          let h = Binfmt.read_header path in
          check Alcotest.bool (name ^ ": v1 flag off") false h.Binfmt.last_use;
          check Alcotest.bool (name ^ ": no oracle") true
            (Binfmt.read_last_use path = None);
          let tr' = Binfmt.read_file path in
          check Alcotest.bool (name ^ ": events intact") true
            (Trace.to_list tr = Trace.to_list tr')))
    Workloads.Scenarios.all

let test_truncated_footer () =
  tmp (fun path ->
      Binfmt.write_file path Workloads.Scenarios.rho4;
      let size = (Unix.stat path).Unix.st_size in
      (* cut into the footer trailer: both full reads and the footer
         seek must refuse *)
      List.iter
        (fun cut ->
          let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
          Unix.ftruncate fd (size - cut);
          Unix.close fd;
          expect_corrupt (fun () -> Binfmt.read_file path);
          expect_corrupt (fun () -> ignore (Binfmt.read_last_use path)))
        [ 1; 9; 15 ])

let test_runner_streaming () =
  let tr =
    Workloads.Generator.generate
      {
        Workloads.Generator.default with
        events = 2_000;
        vars = 900;
        plan = Workloads.Generator.Violate_at 0.5;
      }
  in
  tmp (fun path ->
      Binfmt.write_file path tr;
      let streamed =
        Analysis.Runner.run_stream (module Aerodrome.Opt) path
      in
      let materialized = Analysis.Runner.run (module Aerodrome.Opt) tr in
      check Alcotest.bool "both violating" true
        (Analysis.Runner.violating streamed
        && Analysis.Runner.violating materialized);
      match (streamed.outcome, materialized.outcome) with
      | Analysis.Runner.Verdict (Some a), Analysis.Runner.Verdict (Some b) ->
        check Alcotest.int "same event" b.Aerodrome.Violation.index
          a.Aerodrome.Violation.index
      | _ -> Alcotest.fail "expected verdicts")

let test_large_roundtrip () =
  (* >=100k events: exercises many buffered-reader refills (64 KiB chunks)
     and the chunk boundaries falling inside multi-byte records *)
  let tr =
    Workloads.Generator.generate
      { Workloads.Generator.default with events = 120_000; vars = 5_000 }
  in
  tmp (fun path ->
      Binfmt.write_file path tr;
      let tr' = Binfmt.read_file path in
      check Alcotest.bool "120k-event roundtrip" true
        (Trace.to_list tr = Trace.to_list tr');
      let h, rev = Binfmt.fold path ~init:[] ~f:(fun acc e -> e :: acc) in
      check Alcotest.int "header count" (Trace.length tr) h.Binfmt.events;
      check Alcotest.bool "fold sees the same events" true
        (List.rev rev = Trace.to_list tr))

let prop_roundtrip =
  QCheck.Test.make ~name:"binary roundtrip" ~count:100
    (Helpers.arb_trace ~threads:4 ~locks:2 ~vars:4 ~max_len:100 ~complete:false ())
    (fun tr ->
      let buf = Buffer.create 256 in
      Trace.iter (fun e -> Binfmt.encode_event buf e) tr;
      let s = Buffer.contents buf in
      let pos = ref 0 in
      let next () =
        if !pos >= String.length s then -1
        else begin
          let b = Char.code s.[!pos] in
          incr pos;
          b
        end
      in
      let rec decode acc =
        match Binfmt.decode_event next with
        | Some e -> decode (e :: acc)
        | None -> List.rev acc
      in
      decode [] = Trace.to_list tr)

let suite =
  ( "binfmt",
    [
      Alcotest.test_case "scenario roundtrips" `Quick test_roundtrip_scenarios;
      Alcotest.test_case "header" `Quick test_header;
      Alcotest.test_case "streaming" `Quick test_streaming_matches_materialized;
      Alcotest.test_case "early close" `Quick test_streaming_early_close;
      Alcotest.test_case "compactness" `Quick test_compactness;
      Alcotest.test_case "text detection" `Quick test_not_binary;
      Alcotest.test_case "corruption" `Quick test_corruption;
      Alcotest.test_case "last-use roundtrip" `Quick test_last_use_roundtrip;
      Alcotest.test_case "no-footer compat" `Quick test_no_footer_compat;
      Alcotest.test_case "truncated footer" `Quick test_truncated_footer;
      Alcotest.test_case "streaming runner" `Quick test_runner_streaming;
      Alcotest.test_case "large roundtrip" `Quick test_large_roundtrip;
    ]
    @ Helpers.qcheck_tests [ prop_roundtrip ] )
