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
      let h, rev = Binfmt.fold_packed path ~init:[] ~f:(fun acc w -> w :: acc) in
      check Alcotest.int "header events" (Trace.length tr) h.Binfmt.events;
      check Alcotest.bool "the written events" true
        (List.rev rev = List.map Packed.of_event (Trace.to_list tr)))

(* A consumer stops [fold_packed] early by raising from [f].  The
   exception must reach it unchanged (not as [Corrupt]), the file must
   not stay open, and a fresh fold must still see every event. *)
let test_streaming_early_close () =
  let open_fds () =
    if Sys.file_exists "/proc/self/fd" then
      Some (Array.length (Sys.readdir "/proc/self/fd"))
    else None
  in
  tmp (fun path ->
      Binfmt.write_file path Workloads.Scenarios.rho1;
      let before = open_fds () in
      let seen = ref 0 in
      (match
         Binfmt.fold_packed path ~init:() ~f:(fun () _ ->
             incr seen;
             if !seen = 2 then raise Exit)
       with
      | exception Exit -> ()
      | exception e ->
        Alcotest.failf "early stop surfaced as %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "the fold ran past the stop");
      check Alcotest.int "stopped after two events" 2 !seen;
      (match (before, open_fds ()) with
      | Some b, Some a -> check Alcotest.int "no descriptor left open" b a
      | _ -> ());
      let _, n = Binfmt.fold_packed path ~init:0 ~f:(fun n _ -> n + 1) in
      check Alcotest.int "a fresh fold sees every event"
        (Trace.length Workloads.Scenarios.rho1) n)

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
          expect_corrupt (fun () -> ignore (Binfmt.read_last_use path));
          expect_corrupt (fun () -> ignore (Binfmt.read_stats path)))
        [ 1; 9; 15 ])

(* The footer is decoded once, and a section the caller does not keep
   is still checked: reading both halves at once gives what the two
   single reads give, and a last-use index past the last event fails
   every reader, the ones that keep no last-use index included. *)
let test_footer_sections () =
  tmp (fun path ->
      Binfmt.write_file path Workloads.Scenarios.rho4;
      check Alcotest.bool "read_footer = read_last_use, read_stats" true
        (Binfmt.read_footer path = (Binfmt.read_last_use path, Binfmt.read_stats path));
      let ic = open_in_bin path in
      let whole = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let n = String.length whole in
      let flen = ref 0 in
      for k = 7 downto 0 do
        flen := (!flen lsl 8) lor Char.code whole.[n - 16 + k]
      done;
      (* variable 0's entry is the footer's first byte; 0x7f keeps it a
         one-byte varint and lies past rho4's 12 events *)
      let b = Bytes.of_string whole in
      Bytes.set b (n - 16 - !flen) '\x7f';
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc;
      List.iter
        (fun (what, read) ->
          match read () with
          | () -> Alcotest.failf "%s accepted an out-of-range last-use index" what
          | exception Binfmt.Corrupt msg ->
            check Alcotest.bool (what ^ ": " ^ msg) true
              (Helpers.contains msg "last-use index out of range for variable 0"))
        [
          ("read_last_use", fun () -> ignore (Binfmt.read_last_use path));
          ("read_stats", fun () -> ignore (Binfmt.read_stats path));
          ( "read_footer, nothing kept",
            fun () -> ignore (Binfmt.read_footer ~last_use:false ~stats:false path) );
          ( "fold_packed",
            fun () -> ignore (Binfmt.fold_packed path ~init:() ~f:(fun () _ -> ())) );
        ])

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
  (* >=100k events over 5,000 variables: most records carry multi-byte
     varints, through both the boxing and the packed reader *)
  let tr =
    Workloads.Generator.generate
      { Workloads.Generator.default with events = 120_000; vars = 5_000 }
  in
  tmp (fun path ->
      Binfmt.write_file path tr;
      let tr' = Binfmt.read_file path in
      check Alcotest.bool "120k-event roundtrip" true
        (Trace.to_list tr = Trace.to_list tr');
      let h, rev = Binfmt.fold_packed path ~init:[] ~f:(fun acc w -> w :: acc) in
      check Alcotest.int "header count" (Trace.length tr) h.Binfmt.events;
      check Alcotest.bool "fold_packed sees the written events" true
        (List.rev rev = List.map Packed.of_event (Trace.to_list tr)))

(* Thread ids from Varstats.mask_width (62) up share the overflow bit,
   which is the sign bit of a 63-bit int: the v3 footer must write such
   a mask and give back exactly what the trace's statistics hold, with
   one overflow thread (63 threads) and with many (200). *)
let test_many_threads_roundtrip () =
  List.iter
    (fun threads ->
      let tr =
        Workloads.Generator.generate
          { Workloads.Generator.default with events = 5_000; threads; vars = 2_000 }
      in
      let where = Printf.sprintf "%d threads" threads in
      tmp (fun path ->
          Binfmt.write_file path tr;
          check Alcotest.bool (where ^ ": events") true
            (Trace.to_list tr = Trace.to_list (Binfmt.read_file path));
          match Binfmt.read_stats path with
          | None -> Alcotest.failf "%s: expected a statistics footer" where
          | Some vs ->
            let expect = Varstats.of_trace tr in
            for x = 0 to Trace.vars tr - 1 do
              check Alcotest.int (where ^ ": var mask") (Varstats.var_mask expect x)
                (Varstats.var_mask vs x);
              check Alcotest.int (where ^ ": var writes")
                (Varstats.var_writes expect x) (Varstats.var_writes vs x)
            done;
            for l = 0 to Trace.locks tr - 1 do
              check Alcotest.int (where ^ ": lock mask")
                (Varstats.lock_mask expect l) (Varstats.lock_mask vs l)
            done;
            check Alcotest.bool (where ^ ": an overflow mask was written") true
              (List.exists
                 (fun x -> Varstats.var_mask vs x < 0)
                 (List.init (Trace.vars tr) Fun.id))))
    [ 63; 200 ]

let prop_roundtrip =
  QCheck.Test.make ~name:"binary roundtrip" ~count:100
    (Helpers.arb_trace ~threads:4 ~locks:2 ~vars:4 ~max_len:100 ~complete:false ())
    (fun tr ->
      (* v1 (no footer) and v3 (last-use + statistics footer) *)
      List.for_all
        (fun last_use ->
          tmp (fun path ->
              Binfmt.write_file ~last_use path tr;
              Trace.to_list (Binfmt.read_file path) = Trace.to_list tr))
        [ false; true ])

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
      Alcotest.test_case "footer sections" `Quick test_footer_sections;
      Alcotest.test_case "streaming runner" `Quick test_runner_streaming;
      Alcotest.test_case "large roundtrip" `Quick test_large_roundtrip;
      Alcotest.test_case "63 and 200 threads roundtrip" `Quick
        test_many_threads_roundtrip;
    ]
    @ Helpers.qcheck_tests [ prop_roundtrip ] )
