(* Packed event words and zero-copy ingestion: codec roundtrips at the
   slice boundaries, arena/cursor semantics across chunk boundaries,
   the packed readers against the trace that was written (the encoder
   is the oracle), the runner against the seed checkers, and a table of
   hostile binary inputs that must fail identically (clean [Corrupt]
   naming the file, no crash) through every reader. *)

open Traces

let check = Alcotest.check

let tmp body =
  let path = Filename.temp_file "aerodrome_packed" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> body path)

(* The [Corrupt] message, which must name [path]. *)
let expect_corrupt ~path name body =
  match body () with
  | exception Binfmt.Corrupt msg ->
    if not (Helpers.contains msg path) then
      Alcotest.failf "%s: message %S does not name the file" name msg
  | _ -> Alcotest.failf "%s: expected Binfmt.Corrupt" name

(* --- word codec --- *)

let test_word_codec () =
  let cases =
    [
      (Packed.op_read, 0, 0);
      (Packed.op_write, 1, 5);
      (Packed.op_acquire, Packed.max_tid, 0);
      (Packed.op_release, 0, Packed.max_target);
      (Packed.op_fork, Packed.max_tid, Packed.max_target);
      (Packed.op_join, 7, 39);
      (Packed.op_begin, 3, 0);
      (Packed.op_end, Packed.max_tid, 0);
    ]
  in
  List.iter
    (fun (op, t, d) ->
      let w = Packed.pack ~op ~tid:t ~target:d in
      check Alcotest.bool "word nonnegative" true (w >= 0);
      check Alcotest.int "opcode" op (Packed.opcode w);
      check Alcotest.int "tid" t (Packed.tid w);
      check Alcotest.int "target" d (Packed.target w))
    cases;
  (* the exported layout constant is the one the codec actually uses:
     the binfmt decode loop assembles words with it directly *)
  check Alcotest.int "target_shift layout"
    (Packed.pack ~op:0 ~tid:0 ~target:1)
    (1 lsl Packed.target_shift)

let test_event_roundtrip () =
  List.iter
    (fun (name, tr, _) ->
      Trace.iter
        (fun e ->
          if Packed.to_event (Packed.of_event e) <> e then
            Alcotest.failf "%s: event did not roundtrip" name)
        tr)
    Workloads.Scenarios.all

let test_fits () =
  check Alcotest.bool "typical domains" true
    (Packed.fits ~threads:64 ~locks:100 ~vars:1_000_000);
  check Alcotest.bool "tid edge" true
    (Packed.fits ~threads:(Packed.max_tid + 1) ~locks:0 ~vars:0);
  check Alcotest.bool "tid overflow" false
    (Packed.fits ~threads:(Packed.max_tid + 2) ~locks:0 ~vars:0);
  check Alcotest.bool "target edge" true
    (Packed.fits ~threads:1 ~locks:0 ~vars:(Packed.max_target + 1));
  check Alcotest.bool "target overflow" false
    (Packed.fits ~threads:1 ~locks:0 ~vars:(Packed.max_target + 2))

(* --- arena and cursor --- *)

let test_arena () =
  let a = Packed.Arena.create ~chunk_words:8 () in
  let cw = Packed.Arena.chunk_words a in
  check Alcotest.bool "chunk size is a power of two" true
    (cw >= 8 && cw land (cw - 1) = 0);
  (* three full chunks plus a partial tail: growth, boundary-crossing
     reads, and the only-last-chunk-partial invariant all exercised *)
  let n = (3 * cw) + 5 in
  for i = 0 to n - 1 do
    Packed.Arena.push a i
  done;
  check Alcotest.int "length" n (Packed.Arena.length a);
  check Alcotest.bool "capacity covers length" true
    (Packed.Arena.capacity_words a >= n);
  for i = 0 to n - 1 do
    if Packed.Arena.get a i <> i then Alcotest.failf "get %d diverged" i
  done;
  (match Packed.Arena.get a n with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "get past the end must raise");
  let seen = ref 0 in
  Packed.Arena.iter a (fun w ->
      if w <> !seen then Alcotest.failf "iter out of order at %d" !seen;
      incr seen);
  check Alcotest.int "iter count" n !seen;
  let total = ref 0 and chunks = ref 0 in
  Packed.Arena.iter_chunks a (fun c len ->
      incr chunks;
      check Alcotest.bool "fill within chunk" true
        (len > 0 && len <= Bigarray.Array1.dim c);
      if !chunks < 4 then
        check Alcotest.int "interior chunk full" cw len;
      total := !total + len);
  check Alcotest.int "chunk count" 4 !chunks;
  check Alcotest.int "chunk fills sum to length" n !total;
  let cur = Packed.Cursor.of_arena a in
  let i = ref 0 in
  let rec drain () =
    let w = Packed.Cursor.next cur in
    if w <> -1 then begin
      if w <> !i then Alcotest.failf "cursor diverged at %d" !i;
      incr i;
      drain ()
    end
  in
  drain ();
  check Alcotest.int "cursor count" n !i;
  check Alcotest.int "cursor stays at end" (-1) (Packed.Cursor.next cur)

let test_empty_arena () =
  let a = Packed.Arena.create () in
  check Alcotest.int "empty length" 0 (Packed.Arena.length a);
  Packed.Arena.iter a (fun _ -> Alcotest.fail "iter on empty arena");
  check Alcotest.int "empty cursor" (-1)
    (Packed.Cursor.next (Packed.Cursor.of_arena a))

(* --- packed readers vs the written trace --- *)

let test_read_packed_matches_boxed () =
  let tr =
    Workloads.Generator.generate
      { Workloads.Generator.default with events = 20_000; vars = 900 }
  in
  tmp (fun path ->
      Binfmt.write_file path tr;
      let h, arena = Binfmt.read_packed path in
      check Alcotest.int "arena length" (Trace.length tr)
        (Packed.Arena.length arena);
      let i = ref 0 in
      Trace.iter
        (fun e ->
          if Packed.to_event (Packed.Arena.get arena !i) <> e then
            Alcotest.failf "event %d diverged" !i;
          incr i)
        tr;
      let _, rev =
        Binfmt.fold_packed path ~init:[] ~f:(fun acc w -> w :: acc)
      in
      let words = List.rev rev in
      check Alcotest.int "fold_packed count" h.Binfmt.events
        (List.length words);
      List.iteri
        (fun j w ->
          if w <> Packed.of_event (Trace.get tr j) then
            Alcotest.failf "fold_packed word %d diverged" j)
        words)

let test_read_packed_v1 () =
  (* the until-EOF (no footer) decode loop is a separate code path *)
  let written = Workloads.Scenarios.rho4 in
  tmp (fun path ->
      Binfmt.write_file ~last_use:false path written;
      let _, arena = Binfmt.read_packed path in
      check Alcotest.int "v1 arena length" (Trace.length written)
        (Packed.Arena.length arena);
      let i = ref 0 in
      Trace.iter
        (fun e ->
          if Packed.to_event (Packed.Arena.get arena !i) <> e then
            Alcotest.failf "v1 event %d diverged" !i;
          incr i)
        written)

(* [Checker.run] packs one event at a time from the [Trace.t];
   [run_arena] walks a [Cursor] over an arena whose 64-word chunks put
   chunk boundaries inside every longer scenario.  The two loops must
   stop at the same event with the same report. *)
let test_run_arena_matches_run () =
  List.iter
    (fun (cname, c) ->
      List.iter
        (fun (tname, tr, _) ->
          let direct = Aerodrome.Checker.run c tr in
          let arena = Packed.Arena.create ~chunk_words:64 () in
          Trace.iter
            (fun e -> Packed.Arena.push arena (Packed.of_event e))
            tr;
          let packed =
            Aerodrome.Checker.run_arena c ~threads:(Trace.threads tr)
              ~locks:(Trace.locks tr) ~vars:(Trace.vars tr) arena
          in
          match (direct, packed) with
          | None, None -> ()
          | Some (a : Aerodrome.Violation.t), Some b when a = b -> ()
          | _ ->
            Alcotest.failf "%s on %s: run_arena diverged from run" cname
              tname)
        Workloads.Scenarios.all)
    Helpers.online_checkers

(* --- the runner's packed path --- *)

(* [Runner.run_stream] against the oracles.  [tr] is written as a v1
   binary, a v3 binary and a .std text file; each is checked under each
   of [prefilters] and must report what [Checker.run] of Opt and of the
   seed's Reference_opt report on [tr] itself — after
   [Prefilter.run_trace `Exact] on the legs that filter — with the same
   verdict, violation index and [events_fed].  [Auto] filters
   wherever statistics come for free: not on a v1 file. *)
let check_stream_against_oracles label prefilters tr =
  let with_file suffix write body =
    let path = Filename.temp_file "aerodrome_oracle" suffix in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        write path tr;
        body path)
  in
  with_file ".bin" (Binfmt.write_file ~last_use:false) @@ fun v1 ->
  with_file ".bin" Binfmt.write_file @@ fun v3 ->
  with_file ".std" Parser.to_file @@ fun std ->
  let oracle filtered =
    let tr = if filtered then fst (Prefilter.run_trace `Exact tr) else tr in
    ( Helpers.violation_index (module Aerodrome.Opt) tr,
      Helpers.violation_index (module Reference.Reference_opt) tr,
      Trace.length tr )
  in
  let unfiltered = oracle false and filtered = oracle true in
  List.iter
    (fun (format, path, has_stats) ->
      List.iter
        (fun (pfname, pf) ->
          let where = Printf.sprintf "%s/%s/%s" label format pfname in
          let r =
            Analysis.Runner.run_stream ~prefilter:pf (module Aerodrome.Opt)
              path
          in
          let index =
            match r.Analysis.Runner.outcome with
            | Analysis.Runner.Verdict v ->
              Option.map (fun v -> v.Aerodrome.Violation.index) v
            | Analysis.Runner.Timed_out -> Alcotest.failf "%s: timed out" where
          in
          let opt, reference, fed =
            match pf with
            | Analysis.Runner.Off -> unfiltered
            | Analysis.Runner.Exact -> filtered
            | Analysis.Runner.Auto -> if has_stats then filtered else unfiltered
          in
          Alcotest.(check (option int)) (where ^ ": Opt's index") opt index;
          Alcotest.(check (option int))
            (where ^ ": Reference_opt's index")
            reference index;
          Alcotest.(check int) (where ^ ": events_fed") fed
            r.Analysis.Runner.events_fed)
        prefilters)
    [ ("v1", v1, false); ("v3", v3, true); ("std", std, true) ]

let test_runner_packed_differential () =
  (* end to end through the runner, against the oracles, with the
     prefilter off, automatic and forced exact *)
  List.iter
    (fun (tname, tr) ->
      check_stream_against_oracles tname
        [
          ("off", Analysis.Runner.Off);
          ("auto", Analysis.Runner.Auto);
          ("exact", Analysis.Runner.Exact);
        ]
        tr)
    [
      ( "violating-6k",
        Workloads.Generator.generate
          {
            Workloads.Generator.default with
            events = 6_000;
            threads = 6;
            vars = 400;
            plan = Workloads.Generator.Violate_at 0.6;
          } );
      ( "violating",
        Workloads.Generator.generate
          {
            Workloads.Generator.default with
            events = 30_000;
            vars = 1_500;
            plan = Workloads.Generator.Violate_at 0.7;
          } );
      ( "clean",
        Workloads.Generator.generate
          { Workloads.Generator.default with events = 30_000; vars = 1_500 }
      );
    ]

(* Minor-heap words per event that [Binfmt.fold_packed] ->
   [Opt.feed_packed] allocates on a fresh Opt fed from a v3 file of [tr],
   under the ambient reclaim policy or, with [~oracle], the file's
   last-use oracle.  [~steady] counts only the middle half of the events:
   no start-up growth of Opt's sets and pools, no releases at the last
   uses, no decoder set-up or tear-down. *)
let packed_words_per_event ?(oracle = false) ?(steady = false) tr =
  tmp (fun path ->
      Binfmt.write_file path tr;
      let h = Binfmt.read_header path in
      let policy =
        if oracle then Aerodrome.Reclaim.Oracle (Option.get (Binfmt.read_last_use path))
        else Aerodrome.Reclaim.ambient ()
      in
      let st =
        Aerodrome.Reclaim.with_policy policy (fun () ->
            Aerodrome.Opt.create ~threads:h.Binfmt.threads ~locks:h.Binfmt.locks
              ~vars:h.Binfmt.vars)
      in
      let n = Trace.length tr in
      let lo, hi = if steady then (n / 4, 3 * n / 4) else (0, n) in
      let w0 = ref (Gc.minor_words ()) and w1 = ref nan in
      ignore
        (Binfmt.fold_packed path ~init:0 ~f:(fun i w ->
             if steady && i = lo then w0 := Gc.minor_words ();
             if i = hi then w1 := Gc.minor_words ();
             ignore (Aerodrome.Opt.feed_packed st w);
             i + 1));
      if hi = n then w1 := Gc.minor_words ();
      (!w1 -. !w0) /. float_of_int (hi - lo))

(* The packed path's reason to exist: from the file to the checker,
   nothing is boxed per event.  On the mixed corpus (8 threads, ~200k
   events) what the loop puts on the heap is Opt's per-variable state as
   variables first appear (about 0.06 words/event).  Boxing each record on
   the way (3 to 5 words per [Event.t]) exceeds the bound. *)
let max_words_per_event = 4.0

let test_packed_allocation_bound () =
  let per_event =
    packed_words_per_event (Workloads.Corpus.mixed ~threads:8 ~events_total:200_000 ())
  in
  if per_event > max_words_per_event then
    Alcotest.failf "packed path allocated %.1f words/event (bound %.1f)"
      per_event max_words_per_event

(* Opt's per-event loop itself allocates nothing: no closure per drain
   or write, no boxed clock.  On the shape of the benchmark's shared-seq
   workload (16 threads, 16 locks, 90% of accesses locked, ~200k events,
   last-use oracle) the middle half allocates about 0.004 words/event. *)
let test_opt_steady_state_allocation () =
  let tr =
    Workloads.Generator.generate
      {
        Workloads.Generator.default with
        threads = 16;
        locks = 16;
        vars = 200_000 / 3;
        events = 200_000;
        shape = Workloads.Generator.Independent;
        locked_fraction = 0.9;
      }
  in
  let per_event = packed_words_per_event ~oracle:true ~steady:true tr in
  if per_event > 0.05 then
    Alcotest.failf "Opt allocated %.3f words/event in steady state (bound 0.05)"
      per_event

(* The same on the anchored shape (16 threads, 4 locks, ~200k events,
   last-use oracle), where long anchor transactions keep many variables
   alive and the oracle releases one at almost every access.  Whole
   records are recycled and a record's stale readers are one bitset
   word, so the middle half allocates about 0.35 words/event: the live
   set is still growing, and each new variable costs a fresh record with
   three clocks (25 words, about 0.13 words/event) plus the vectors its
   clocks inflate to (17 words each, about 0.23).  A per-record [Iset]
   (16 slots and a byte per thread) cost about 0.46; a fresh record, an
   option box and four list cells per released variable about 2.4. *)
let test_opt_anchored_steady_state_allocation () =
  let tr =
    Workloads.Generator.generate
      {
        Workloads.Generator.default with
        threads = 16;
        locks = 4;
        vars = 200_000 / 3;
        events = 200_000;
        shape = Workloads.Generator.Anchored;
      }
  in
  let per_event = packed_words_per_event ~oracle:true ~steady:true tr in
  if per_event > 0.4 then
    Alcotest.failf
      "Opt allocated %.3f words/event in steady state on the anchored shape \
       (bound 0.4)"
      per_event

(* --- hostile binary inputs --- *)

(* a local LEB128 encoder for hand-crafted files *)
let add_uint buf n =
  let rec go n =
    if n >= 0x80 then begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
    else Buffer.add_char buf (Char.chr n)
  in
  go n

let write_raw path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let truncate_by path cut =
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd (size - cut);
  Unix.close fd

let patch_byte path off byte =
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  ignore (Unix.lseek fd (size + off) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.make 1 (Char.chr byte)) 0 1);
  Unix.close fd

let crafted ?(magic = Binfmt.magic) ~threads ~locks ~vars ~events body =
  let buf = Buffer.create 64 in
  Buffer.add_string buf magic;
  add_uint buf threads;
  add_uint buf locks;
  add_uint buf vars;
  add_uint buf events;
  body buf;
  Buffer.contents buf

let base = Workloads.Scenarios.rho4

(* each case prepares a malformed file; every reader — materializing
   and folding — must raise [Corrupt] naming the file *)
let hostile_cases =
  [
    ("empty file", fun _ -> ());
    ("bad magic", fun path -> write_raw path "NOTATRACEATALL");
    ( "truncated header",
      fun path ->
        Binfmt.write_file path base;
        let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
        Unix.ftruncate fd 10;
        Unix.close fd );
    ( "mid-event EOF",
      fun path ->
        Binfmt.write_file ~last_use:false path base;
        truncate_by path 1 );
    ( "truncated v2 footer",
      fun path ->
        Binfmt.write_file ~stats:false path base;
        truncate_by path 3 );
    ( "truncated v3 footer",
      fun path ->
        Binfmt.write_file path base;
        truncate_by path 5 );
    ( "oversized footer length",
      fun path ->
        Binfmt.write_file path base;
        (* the 8-byte little-endian footer length sits just before the
           trailing magic; declare an absurd footer *)
        for k = 16 downto 12 do
          patch_byte path (-k) 0xff
        done );
    ( "oversized declared event count",
      fun path ->
        write_raw path
          (crafted ~threads:2 ~locks:1 ~vars:2 ~events:1_000_000
             (fun _ -> ())) );
    ( "unknown opcode",
      fun path ->
        write_raw path
          (crafted ~threads:2 ~locks:0 ~vars:1 ~events:1 (fun buf ->
               Buffer.add_char buf '\x0f';
               add_uint buf 0)) );
    ( "id overflow",
      fun path ->
        write_raw path
          (crafted ~threads:2 ~locks:0 ~vars:1 ~events:1 (fun buf ->
               (* a read record whose variable id varint never fits an
                  OCaml int: ten continuation bytes *)
               Buffer.add_char buf '\x00';
               add_uint buf 0;
               for _ = 1 to 10 do
                 Buffer.add_char buf '\xff'
               done)) );
  ]

let test_hostile_inputs () =
  List.iter
    (fun (name, prepare) ->
      tmp (fun path ->
          prepare path;
          expect_corrupt ~path (name ^ ": read_file") (fun () ->
              ignore (Binfmt.read_file path));
          expect_corrupt ~path (name ^ ": read_packed") (fun () ->
              ignore (Binfmt.read_packed path));
          expect_corrupt ~path (name ^ ": fold_packed") (fun () ->
              ignore (Binfmt.fold_packed path ~init:0 ~f:(fun n _ -> n + 1)))))
    hostile_cases

(* A well-formed header whose declared thread domain is one past what a
   packed word holds, and no event: no reader rejects it, but the runner
   must refuse it with a message naming the file and the limit, rather
   than fall back to another path. *)
let test_oversized_domains () =
  tmp (fun path ->
      write_raw path
        (crafted ~threads:(Packed.max_tid + 2) ~locks:0 ~vars:0 ~events:0
           (fun _ -> ()));
      match Analysis.Runner.run_file (module Aerodrome.Opt) path with
      | Ok _ -> Alcotest.fail "oversized domains were checked"
      | Error msg ->
        check Alcotest.bool "message names the file" true
          (Helpers.contains msg path);
        check Alcotest.bool "message names the packed limit" true
          (Helpers.contains msg
             (Printf.sprintf "packed limit (%d threads" (Packed.max_tid + 1))))

(* [run] packs a materialized trace, so a thread id past the packed
   slice is refused before any checker runs. *)
let test_run_refuses_oversized_trace () =
  let tr = Trace.of_events [ Event.begin_ (Packed.max_tid + 1) ] in
  match Analysis.Runner.run (module Aerodrome.Opt) tr with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "an unpackable trace was checked"

(* The library entry points pack too: [Checker.run] through an arena,
   [Monitor] per observed event. *)
let test_library_refuses_oversized_trace () =
  let tr = Trace.of_events [ Event.begin_ (Packed.max_tid + 1) ] in
  (match Aerodrome.Checker.run (module Aerodrome.Opt) tr with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Checker.run checked an unpackable trace");
  match Aerodrome.Monitor.of_trace_domains tr with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Monitor.create accepted unpackable domains"

let test_packed_range_gate () =
  (* a v1 file with a thread id beyond the 21-bit packed slice: every
     reader must refuse rather than silently corrupt the word — this is
     the [Packed.fits] gate the runner applies from the header *)
  tmp (fun path ->
      write_raw path
        (crafted ~threads:(1 lsl 30) ~locks:0 ~vars:1 ~events:1 (fun buf ->
             Buffer.add_char buf (Char.chr Packed.op_begin);
             add_uint buf (1 lsl 29)));
      expect_corrupt ~path "read_file refuses" (fun () ->
          ignore (Binfmt.read_file path));
      expect_corrupt ~path "fold_packed refuses" (fun () ->
          ignore (Binfmt.fold_packed path ~init:0 ~f:(fun n _ -> n + 1)));
      check Alcotest.bool "fits gate says no" false
        (Packed.fits ~threads:(1 lsl 30) ~locks:0 ~vars:1))

let suite =
  ( "packed",
    [
      Alcotest.test_case "word codec" `Quick test_word_codec;
      Alcotest.test_case "event roundtrip" `Quick test_event_roundtrip;
      Alcotest.test_case "fits" `Quick test_fits;
      Alcotest.test_case "arena" `Quick test_arena;
      Alcotest.test_case "empty arena" `Quick test_empty_arena;
      Alcotest.test_case "read_packed vs boxed" `Quick
        test_read_packed_matches_boxed;
      Alcotest.test_case "read_packed v1" `Quick test_read_packed_v1;
      Alcotest.test_case "run_arena vs run" `Quick test_run_arena_matches_run;
      Alcotest.test_case "runner packed differential" `Quick
        test_runner_packed_differential;
      Alcotest.test_case "packed allocates at most 4 words/event" `Quick
        test_packed_allocation_bound;
      Alcotest.test_case "Opt allocates nothing in steady state" `Quick
        test_opt_steady_state_allocation;
      Alcotest.test_case "Opt allocates under 1 word/event on the anchored shape"
        `Quick test_opt_anchored_steady_state_allocation;
      Alcotest.test_case "hostile inputs" `Quick test_hostile_inputs;
      Alcotest.test_case "oversized domains" `Quick test_oversized_domains;
      Alcotest.test_case "run refuses oversized traces" `Quick
        test_run_refuses_oversized_trace;
      Alcotest.test_case "Checker.run and Monitor refuse oversized traces"
        `Quick test_library_refuses_oversized_trace;
      Alcotest.test_case "packed range gate" `Quick test_packed_range_gate;
    ] )
