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

(* --- the decoder against a frozen copy ---

   [Reference.Reference_binfmt] is the per-record decoder the block
   decoder replaced.  On crafted v1/v2/v3 files — ids at the varint
   edges (127/128, 16383/16384) and at the packed limits, long enough
   to cross the decode blocks, then damaged by bit flips, overwrites,
   truncations and insertions — [fold_packed] must hand [f] exactly the
   reference's words and end as it does (the same header, or the same
   exception with the same message).  The one exception is a record the
   reference decodes but the decoder rejects, which the reference never
   checked: an id outside the header's domain, or a nine-byte varint
   that sets bit 62 (the reference decodes it negative).  There the
   decoder must have handed [f] the reference's words in front of that
   record and raise its own [Corrupt].  [read_packed] must give the
   same words as [fold_packed], or the same exception. *)

let leb buf n =
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let edge_tids = [| 0; 1; 127; 128; 16383; 16384; Packed.max_tid - 1; Packed.max_tid |]

let edge_targets =
  [| 0; 1; 127; 128; 16383; 16384; Packed.max_target - 1; Packed.max_target |]

(* Bytes a mutation writes: record-shaped ones (small opcodes, the last
   valid and first invalid opcode, varint continuation edges) and any. *)
let palette = [| 0x00; 0x01; 0x06; 0x07; 0x08; 0x7f; 0x80; 0x81; 0xff |]

let mutate st s =
  let b = ref (Bytes.of_string s) in
  let byte () =
    if Random.State.bool st then palette.(Random.State.int st (Array.length palette))
    else Random.State.int st 256
  in
  for _ = 1 to Random.State.int st 4 do
    let len = Bytes.length !b in
    if len > 0 then begin
      let pos = Random.State.int st len in
      match Random.State.int st 5 with
      | 0 ->
        let c = Char.code (Bytes.get !b pos) lxor (1 lsl Random.State.int st 8) in
        Bytes.set !b pos (Char.chr c)
      | 1 -> Bytes.set !b pos (Char.chr (byte ()))
      | 2 -> b := Bytes.sub !b 0 pos
      | k ->
        (* random bytes, or a run of continuation bytes that may
           overflow a varint *)
        let ins =
          if k = 3 then
            Bytes.init (1 + Random.State.int st 9) (fun _ -> Char.chr (byte ()))
          else Bytes.make (6 + Random.State.int st 6) '\xff'
        in
        b :=
          Bytes.concat Bytes.empty
            [ Bytes.sub !b 0 pos; ins; Bytes.sub !b pos (len - pos) ]
    end
  done;
  Bytes.to_string !b

(* A file of [n] records, then 0 to 3 mutations.  Half the headers
   declare the packed limits as their domains, the other half small
   ones (at most 200 threads, 300 variables and locks), so ids past a
   domain often fit the decoder's one-byte inline path; either way the
   variables and locks of a v2/v3 file, whose footer has an entry for
   each, are 3 and 2, and edge ids above a domain become the largest
   that fits.  One file in four also draws ids one past the domains. *)
let gen_damaged st =
  let version = 1 + Random.State.int st 3 in
  let n =
    if Random.State.int st 6 = 0 then 4000 + Random.State.int st 5000
    else Random.State.int st 200
  in
  let over = Random.State.int st 4 = 0 in
  let pick edges limit =
    match Random.State.int st 3 with
    | 0 -> min edges.(Random.State.int st (Array.length edges)) (limit - 1)
    | 1 when over && Random.State.int st 16 = 0 -> limit
    | _ -> Random.State.int st (min 4 limit)
  in
  let small = Random.State.bool st in
  let domain limit small_max =
    if small then 1 + Random.State.int st small_max else limit + 1
  in
  let threads = domain Packed.max_tid 200 in
  let vars, locks =
    if version = 1 then (domain Packed.max_target 300, domain Packed.max_target 300)
    else (3, 2)
  in
  let buf = Buffer.create ((4 * n) + 64) in
  Buffer.add_string buf
    (match version with 1 -> Binfmt.magic | 2 -> Binfmt.magic_v2 | _ -> Binfmt.magic_v3);
  List.iter (leb buf) [ threads; locks; vars; n ];
  for _ = 1 to n do
    let op = Random.State.int st 8 in
    Buffer.add_char buf (Char.chr op);
    leb buf (pick edge_tids threads);
    if op <= Packed.op_write then leb buf (pick edge_targets vars)
    else if op <= Packed.op_release then leb buf (pick edge_targets locks)
    else if op < Packed.op_begin then leb buf (pick edge_tids threads)
  done;
  if version >= 2 then begin
    let fb = Buffer.create 64 in
    for _ = 1 to vars + locks do
      leb fb (Random.State.int st (n + 1))
    done;
    if version = 3 then
      for _ = 1 to (2 * vars) + locks do
        leb fb (Random.State.int st 16)
      done;
    Buffer.add_buffer buf fb;
    for k = 0 to 7 do
      Buffer.add_char buf (Char.chr ((Buffer.length fb lsr (8 * k)) land 0xff))
    done;
    Buffer.add_string buf Binfmt.footer_magic
  end;
  mutate st (Buffer.contents buf)

let arb_damaged =
  QCheck.make
    ~print:(fun s ->
      Printf.sprintf "%d bytes: %S" (String.length s)
        (String.sub s 0 (min 96 (String.length s))))
    gen_damaged

(* Whether the reference's word [w] has an id outside [h]'s domains. *)
let exceeds_domains (h : Binfmt.header) w =
  let op = Packed.opcode w and d = Packed.target w in
  w < 0
  || Packed.tid w >= h.threads
  || (op <= Packed.op_write && d >= h.vars)
  || (op <= Packed.op_release && op > Packed.op_write && d >= h.locks)
  || (op <= Packed.op_join && op > Packed.op_release && d >= h.threads)

(* [got] ends as [expect] does when every word the reference decoded
   is inside the header's domains, or stops with a fault the reference
   does not check, in front of a word the reference decoded: past the
   header's domains, or a nine-byte id overflow. *)
let agrees path (words, ending) ((ref_words, _) as expect) =
  ((words, ending) = expect
  && (ref_words = []
     || not (List.exists (exceeds_domains (Binfmt.read_header path)) ref_words)))
  ||
  match ending with
  | Error m when Helpers.contains m "exceeds the header's" || Helpers.contains m "id overflow" ->
    let k = List.length words in
    List.length ref_words > k
    && List.filteri (fun i _ -> i < k) ref_words = words
    && (Helpers.contains m "id overflow"
       || exceeds_domains (Binfmt.read_header path) (List.nth ref_words k))
  | _ -> false

(* The words a fold handed [f], in order, and how the fold ended. *)
let folded fold path =
  let seen = ref [] in
  let ending =
    match fold path ~init:() ~f:(fun () w -> seen := w :: !seen) with
    | h, () -> Ok h
    | exception e -> Error (Printexc.to_string e)
  in
  (List.rev !seen, ending)

let prop_matches_reference =
  QCheck.Test.make ~name:"decoder matches the frozen copy on damaged files"
    ~count:400 arb_damaged (fun bytes ->
      tmp (fun path ->
          let oc = open_out_bin path in
          output_string oc bytes;
          close_out oc;
          let expect = folded Reference.Reference_binfmt.fold_packed path in
          let got = folded Binfmt.fold_packed path in
          if not (agrees path got expect) then
            QCheck.Test.fail_reportf "fold_packed: %s, the reference: %s"
              (match snd got with Ok _ -> "ok" | Error m -> m)
              (match snd expect with Ok _ -> "ok" | Error m -> m);
          let read =
            match Binfmt.read_packed path with
            | h, a ->
              let words = ref [] in
              Packed.Arena.iter a (fun w -> words := w :: !words);
              (List.rev !words, Ok h)
            | exception e -> ([], Error (Printexc.to_string e))
          in
          let expect_read =
            match got with
            | words, (Ok _ as h) -> (words, h)
            | _, (Error _ as e) -> ([], e)
          in
          if read <> expect_read then
            QCheck.Test.fail_reportf "read_packed: %s, fold_packed: %s"
              (match snd read with Ok _ -> "ok" | Error m -> m)
              (match snd expect_read with Ok _ -> "ok" | Error m -> m);
          true))

(* Each id is bounded by its header domain: variables, locks or threads
   by opcode, and the thread id always.  Each bad record comes once
   with three begins after it (the inline path, for one-byte ids) and
   once last in the file (the general path).  A nine-byte id that sets
   bit 62 is an overflow, not a negative id. *)
let test_header_domains () =
  let file records =
    let buf = Buffer.create 64 in
    Buffer.add_string buf Binfmt.magic;
    List.iter (leb buf) [ 2; 1; 1; List.length records ];
    List.iter
      (fun (op, ids) ->
        Buffer.add_char buf (Char.chr op);
        List.iter (leb buf) ids)
      records;
    Buffer.contents buf
  in
  let ok = (Packed.op_begin, [ 1 ]) in
  let decodes bytes =
    tmp (fun path ->
        let oc = open_out_bin path in
        output_string oc bytes;
        close_out oc;
        match Binfmt.fold_packed path ~init:0 ~f:(fun n _ -> n + 1) with
        | _, n -> Ok n
        | exception Binfmt.Corrupt m -> Error (path, m))
  in
  let rejects record expect =
    List.iter
      (fun records ->
        match decodes (file records) with
        | Ok _ -> Alcotest.failf "decoded: %s" expect
        | Error (path, m) -> Alcotest.(check string) expect (path ^ ": " ^ expect) m)
      [ [ ok; record; ok; ok; ok ]; [ ok; record ] ]
  in
  rejects (Packed.op_write, [ 0; 7 ]) "variable id 7 exceeds the header's 1 variables";
  rejects (Packed.op_read, [ 0; 100_000 ])
    "variable id 100000 exceeds the header's 1 variables";
  rejects (Packed.op_acquire, [ 0; 5 ]) "lock id 5 exceeds the header's 1 locks";
  rejects (Packed.op_fork, [ 0; 9 ]) "thread id 9 exceeds the header's 2 threads";
  rejects (Packed.op_begin, [ 5 ]) "thread id 5 exceeds the header's 2 threads";
  rejects (Packed.op_end, [ 200 ]) "thread id 200 exceeds the header's 2 threads";
  let overflow = String.make 8 '\xff' ^ "\x7f" in
  List.iter
    (fun bytes ->
      match decodes bytes with
      | Ok _ -> Alcotest.fail "decoded a negative id"
      | Error (path, m) -> Alcotest.(check string) "overflow" (path ^ ": id overflow") m)
    [ file [] ^ "\x06" ^ overflow; file [] ^ "\x00\x00" ^ overflow ];
  (* the largest ids that fit *)
  Alcotest.(check (result int reject))
    "in range" (Ok 4)
    (Result.map_error ignore
       (decodes
          (file
             [
               (Packed.op_write, [ 1; 0 ]);
               (Packed.op_release, [ 1; 0 ]);
               (Packed.op_join, [ 0; 1 ]);
               (Packed.op_end, [ 1 ]);
             ])))

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
      Alcotest.test_case "ids beyond the header's domains" `Quick test_header_domains;
      Alcotest.test_case "63 and 200 threads roundtrip" `Quick
        test_many_threads_roundtrip;
    ]
    @ Helpers.qcheck_tests [ prop_roundtrip; prop_matches_reference ] )
