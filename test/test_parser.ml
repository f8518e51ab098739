(* Parser / printer tests. *)

open Traces

let check = Alcotest.check

let parse s =
  match Parser.parse_string s with
  | Ok tr -> tr
  | Error e -> Alcotest.failf "unexpected parse error: %a" Parser.pp_error e

let test_basic () =
  let tr = parse "t1|begin\nt1|w(x)\nt2|r(x)\nt1|end\n" in
  check Alcotest.int "events" 4 (Trace.length tr);
  check Alcotest.int "threads" 2 (Trace.threads tr);
  check Alcotest.int "vars" 1 (Trace.vars tr);
  check Alcotest.bool "first is begin" true
    (Event.equal (Trace.get tr 0) (Event.begin_ 0))

let test_all_ops () =
  let tr =
    parse
      "main|fork(w)\nw|begin\nw|acq(l)\nw|r(x)\nw|w(x)\nw|rel(l)\nw|end\nmain|join(w)\n"
  in
  check Alcotest.int "events" 8 (Trace.length tr);
  check Alcotest.int "locks" 1 (Trace.locks tr);
  let kinds =
    Trace.fold
      (fun acc (e : Event.t) ->
        acc
        ^
        match e.op with
        | Event.Fork _ -> "f"
        | Event.Begin -> "b"
        | Event.Acquire _ -> "a"
        | Event.Read _ -> "r"
        | Event.Write _ -> "w"
        | Event.Release _ -> "l"
        | Event.End -> "e"
        | Event.Join _ -> "j")
      "" tr
  in
  check Alcotest.string "order" "fbarwlej" kinds

let test_aliases_and_extras () =
  let tr =
    parse
      "# a comment\n\nt1|read(x)|42\nt1|write(x)|43\nt1|lock(m)\nt1|unlock(m)\nt1|b\nt1|e\n"
  in
  check Alcotest.int "events" 6 (Trace.length tr)

let test_symbols_preserved () =
  let tr = parse "alpha|w(count)\nbeta|r(count)\n" in
  match Trace.symbols tr with
  | None -> Alcotest.fail "expected symbols"
  | Some s ->
    check Alcotest.string "thread name" "alpha" (Trace.Symbols.thread s (Ids.Tid.of_int 0));
    check Alcotest.string "var name" "count" (Trace.Symbols.var s (Ids.Vid.of_int 0))

let test_errors () =
  let expect_err s =
    match Parser.parse_string s with
    | Ok _ -> Alcotest.failf "expected error for %S" s
    | Error e -> e
  in
  let e = expect_err "t1\n" in
  check Alcotest.int "line" 1 e.Parser.line;
  ignore (expect_err "t1|frobnicate(x)\n");
  ignore (expect_err "t1|r(\n");
  ignore (expect_err "t1|r()\n");
  ignore (expect_err "|r(x)\n");
  ignore (expect_err "t 1|r(x)\n")

(* Parsing re-interns ids densely in order of first appearance, so a
   print/parse cycle renames ids; after one such cycle the rendering is a
   fixed point, and the renaming preserves verdicts. *)
let test_roundtrip_scenarios () =
  List.iter
    (fun (name, tr, expected) ->
      let tr' = Parser.parse_string_exn (Parser.to_string tr) in
      Alcotest.check Alcotest.string (name ^ ": printing is a fixed point")
        (Parser.to_string tr') (Parser.to_string (Parser.parse_string_exn (Parser.to_string tr')));
      Alcotest.check Alcotest.int (name ^ ": same length") (Trace.length tr)
        (Trace.length tr');
      Alcotest.check Alcotest.bool (name ^ ": verdict preserved")
        (expected = `Violating)
        (Helpers.verdict (module Aerodrome.Opt) tr'))
    Workloads.Scenarios.all

let test_file_io () =
  let path = Filename.temp_file "aerodrome" ".std" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Parser.to_file path Workloads.Scenarios.rho4;
      let tr = Parser.parse_file_exn path in
      Alcotest.check Alcotest.string "file roundtrip"
        (Parser.to_string Workloads.Scenarios.rho4)
        (Parser.to_string tr))

let prop_roundtrip =
  QCheck.Test.make ~name:"print/parse/print is a fixed point" ~count:100
    (Helpers.arb_trace ~threads:4 ~locks:2 ~vars:4 ~max_len:80 ())
    (fun tr ->
      let once = Parser.to_string (Parser.parse_string_exn (Parser.to_string tr)) in
      let twice = Parser.to_string (Parser.parse_string_exn once) in
      once = twice)

let prop_roundtrip_preserves_verdict =
  QCheck.Test.make ~name:"id renaming preserves the verdict" ~count:100
    (Helpers.arb_trace ~threads:4 ~locks:2 ~vars:4 ~max_len:80 ())
    (fun tr ->
      let tr' = Parser.parse_string_exn (Parser.to_string tr) in
      Helpers.verdict (module Aerodrome.Opt) tr
      = Helpers.verdict (module Aerodrome.Opt) tr')

(* --- the single-pass packed reader against the per-line parser ---

   [read_packed] must give exactly what [parse_string_exn] gives: the
   same events (as packed words), symbols, last-use index and accessor
   statistics, or the same [Parse_error]. *)

type reading = {
  words : int list;
  names : string array * string array * string array;
  last_use : int array * int array;
  accessors : int array * int array * int array;
}

let accessors vs =
  ( Array.init (Varstats.vars vs) (Varstats.var_mask vs),
    Array.init (Varstats.vars vs) (Varstats.var_writes vs),
    Array.init (Varstats.locks vs) (Varstats.lock_mask vs) )

let reference text =
  match Parser.parse_string_exn text with
  | exception Parser.Parse_error e -> Error e
  | tr ->
    let sy = Option.get (Trace.symbols tr) in
    let lt = Lifetime.of_trace tr in
    Ok
      {
        words = List.map Packed.of_event (Trace.to_list tr);
        names = (sy.threads, sy.locks, sy.vars);
        last_use = (lt.vars, lt.locks);
        accessors = accessors (Varstats.of_trace tr);
      }

let with_text text f =
  let path = Filename.temp_file "aerodrome" ".std" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      f path)

(* The scan's reading of [text], and how many lines missed the fast path. *)
let scanned text =
  with_text text (fun path ->
      match Parser.read_packed ~stats:true path with
      | exception Parser.Parse_error e -> (Error e, 0)
      | p ->
        let words = ref [] in
        Packed.Arena.iter p.arena (fun w -> words := w :: !words);
        ( Ok
            {
              words = List.rev !words;
              names = (p.symbols.threads, p.symbols.locks, p.symbols.vars);
              last_use = (p.lifetime.vars, p.lifetime.locks);
              accessors = accessors (Option.get p.stats);
            },
          p.slow_lines ))

let pp_reading ppf = function
  | Error e -> Format.fprintf ppf "Parse_error (%a)" Parser.pp_error e
  | Ok r ->
    let list a = String.concat "," (Array.to_list a) in
    let ints a = String.concat "," (List.map string_of_int (Array.to_list a)) in
    let t, l, v = r.names and lv, ll = r.last_use and m, w, lm = r.accessors in
    Format.fprintf ppf
      "words [%s]@ threads [%s] locks [%s] vars [%s]@ last_use [%s] [%s]@ \
       accessors [%s] [%s] [%s]"
      (String.concat "," (List.map string_of_int r.words))
      (list t) (list l) (list v) (ints lv) (ints ll) (ints m) (ints w) (ints lm)

let reading = Alcotest.testable pp_reading ( = )

let same_reading ?slow label text =
  let got, slow_lines = scanned text in
  Alcotest.check reading label (reference text) got;
  Option.iter (fun n -> Alcotest.(check int) (label ^ ": slow lines") n slow_lines) slow

let test_read_packed_scenarios () =
  List.iter
    (fun (name, tr, _) -> same_reading ~slow:0 name (Parser.to_string tr))
    Workloads.Scenarios.all;
  List.iter
    (fun seed ->
      let tr =
        Workloads.Generator.generate
          {
            Workloads.Generator.default with
            seed = Int64.of_int seed;
            events = 3000;
            threads = 2 + (seed mod 5);
            locks = 1 + (seed mod 3);
            plan =
              (if seed mod 2 = 0 then Workloads.Generator.Violate_at 0.5
               else Workloads.Generator.Atomic);
          }
      in
      same_reading ~slow:0
        (Printf.sprintf "generated seed %d" seed)
        (Parser.to_string tr))
    [ 1; 2; 3; 4; 5; 6 ]

(* Lines off the canonical form: each table entry is a whole file and
   the number of its lines the per-line parser has to take. *)
let test_read_packed_noncanonical () =
  let long = String.make 200_000 'v' in
  List.iter
    (fun (label, text, slow) -> same_reading ~slow label text)
    [
      ("CRLF", "t1|begin\r\nt1|w(x)\r\nt2|r(x)\r\nt1|end\r\n", 0);
      ("leading spaces", "  t1|w(x)\n\tt2|r(x)\n", 2);
      ("trailing spaces", "t1|w(x)  \nt2|r(x)\t\n", 2);
      ("inner spaces", "t1 | w( x )\nt1|r(x)\n", 1);
      ("comments", "# header\nt1|w(x)\n  # indented\nt2|r(x)\n", 2);
      ("blank lines", "\nt1|w(x)\n\n\r\n  \nt2|r(x)\n", 4);
      ("upper-case keywords", "t1|R(x)\nt1|ACQ(l)\nt1|Rel(l)\nt1|BEGIN\nt1|End\n", 5);
      ("begin with a target", "t1|begin(x)\nt1|w(x)\nt1|end\n", 1);
      ("location field", "t1|w(x)|Foo.java:42\nt2|r(x)|\nt2|begin|loc\nt2|end|a|b\n", 0);
      ("no final newline", "t1|w(x)\nt2|r(x)", 0);
      ("no final newline, CRLF", "t1|w(x)\r\nt2|r(x)\r", 0);
      ("empty file", "", 0);
      ("only newlines", "\n\n\n", 3);
      ( "aliases",
        "t1|read(x)\nt1|write(x)\nt1|lock(m)\nt1|unlock(m)\nt1|acquire(m)\n\
         t1|release(m)\nt1|b\nt1|e\n",
        0 );
      ("fork and join", "main|fork(w)\nw|r(x)\nmain|join(w)\n", 0);
      ("name characters", "T.0:a$b@c-d_e|w(X.1)\nt-2|acq(L$0)\nt-2|rel(L$0)\n", 0);
      ( "line longer than the window",
        "t1|w(x)\nt2|r(" ^ long ^ ")\nt1|r(" ^ long ^ ")\n",
        0 );
      ("padded line longer than the window", "t1|w(x)\n  t2|w(" ^ long ^ ")  \n", 1);
    ]

(* The read window is 65536 bytes; a regular file's first read fills it.
   [at_window ~offset line] is a file whose canonical filler ends
   [offset] bytes before the window's end, followed by [line] and one
   more line: [line] straddles the boundary at [offset]. *)
let window = 65536

let at_window ~offset line =
  let filler = Buffer.create window in
  let short = "a|w(x)\n" in
  while window - offset - Buffer.length filler > 32 do
    Buffer.add_string filler short
  done;
  (* one line "a|w(vvv...)\n" takes up the rest exactly *)
  let rest = window - offset - Buffer.length filler in
  Buffer.add_string filler ("a|w(" ^ String.make (rest - 6) 'v' ^ ")\n");
  assert (Buffer.length filler = window - offset);
  Buffer.contents filler ^ line ^ "b|r(x)\n"

(* Lines across the window boundary, names around the 7-byte short-key
   limit, and files that end at the window's edge. *)
let test_read_packed_window () =
  List.iter
    (fun (line, slow) ->
      for offset = 0 to String.length line do
        same_reading ~slow
          (Printf.sprintf "%S straddling the window at %d" line offset)
          (at_window ~offset line)
      done)
    [
      ("t1|w(x)\n", 0);
      ("thread7|acq(lock_01)\r\n", 0);
      ("long_thread_name|rel(lock_01)|Foo.java:42\n", 0);
      ("t1|begin\n", 0);
      ("t1|e\r\n", 0);
      ("main|fork(worker)\n", 0);
      ("  t1|w(x)  \r\n", 1);
      ("# comment\n", 1);
    ];
  List.iter
    (fun (label, text, slow) -> same_reading ~slow label text)
    [
      ("\\r as the window's last byte, then \\n", at_window ~offset:8 "t1|w(x)\r\n", 0);
      ( "\\r as the window's last byte, then a field",
        at_window ~offset:8 "t1|w(x)\r|z\n",
        1 );
      ("\\r as the file's last byte, at the window's end",
        String.sub (at_window ~offset:8 "t1|w(x)\r") 0 window, 0);
      ( "exactly one window, no final newline",
        String.sub (at_window ~offset:7 "t1|w(x)\n") 0 window,
        0 );
      ( "exactly one window, final newline",
        String.sub (at_window ~offset:8 "t1|w(x)\n") 0 window,
        0 );
      ( "names of 7 and 8 bytes",
        "abcdefg|w(xxxxxxx)\nabcdefgh|w(xxxxxxxx)\nabcdefg|acq(lllllll)\n\
         abcdefgh|rel(llllllll)\nabcdefg|r(xxxxxxxx)\n",
        0 );
      ( "names that differ only after byte 7",
        "threadA1|w(variable1)\nthreadA2|w(variable2)\nthreadA1|r(variable2)\n\
         threadA2|r(variable1)\nthreadA|w(variable)\n",
        0 );
      ( "long names that differ only in their first byte",
        "xthread_1|w(avariable)\nythread_1|w(bvariable)\nxthread_1|r(bvariable)\n",
        0 );
      ( "short and long names first met on slow lines",
        " t7|w(short)\n thread_8|w(variable_9)\nt7|r(variable_9)\nthread_8|r(short)\n",
        2 );
      ( "a thread name that is also a variable and a lock",
        "x|w(x)\nx|acq(x)\nx|fork(y)\ny|rel(x)\n",
        0 );
    ]

(* A text [--timeout] is honored by the scan itself: the deadline is
   checked every 4096 lines, and a scan that runs out reports no event
   fed.  [checkpoint] runs after each 4096th line, and its exception
   ends the scan. *)
let test_read_packed_checkpoint () =
  let text = String.concat "" (List.init 10_000 (fun i -> Printf.sprintf "t%d|w(x)\n" (i mod 3))) in
  with_text text (fun path ->
      let calls = ref 0 in
      (match
         Parser.read_packed
           ~checkpoint:(fun () ->
             incr calls;
             if !calls = 2 then raise Exit)
           path
       with
      | _ -> Alcotest.fail "scan did not stop"
      | exception Exit -> ());
      Alcotest.(check int) "stopped at the second checkpoint" 2 !calls;
      let calls = ref 0 in
      ignore (Parser.read_packed ~checkpoint:(fun () -> incr calls) path);
      Alcotest.(check int) "one checkpoint per 4096 lines" 2 !calls;
      let r = Analysis.Runner.run_stream ~timeout:0.0 (module Aerodrome.Opt) path in
      Alcotest.(check bool) "timed out" true (r.outcome = Analysis.Runner.Timed_out);
      Alcotest.(check int) "no event fed" 0 r.events_fed)

(* Malformed lines, each the third line of its file: the scan fails with
   the per-line parser's error, on line 3. *)
let test_read_packed_malformed () =
  List.iter
    (fun line ->
      let text = "t1|w(x)\nt2|r(x)\n" ^ line ^ "\nt1|r(x)\n" in
      let got, _ = scanned text in
      Alcotest.check reading line (reference text) got;
      match got with
      | Error e -> Alcotest.(check int) (line ^ ": line") 3 e.Parser.line
      | Ok _ -> Alcotest.failf "%S: expected a parse error" line)
    [
      "t|r()";
      "t|r(x";
      "t|foo(x)";
      "|r(x)";
      "t";
      "t|r(x y)";
      "t!|r(x)";
      "t|r(x!)";
      "t|r(x)y";
      "t|r";
      "t|r(x)(y)";
      "t|\xc3\xa9(x)";
    ]

(* Byte-level mutations of a rendered trace: replace, insert, delete or
   duplicate bytes, biased towards the format's delimiters.  Whatever
   the result, both parsers agree — the same reading or the same
   [Parse_error] — and no other exception escapes. *)
let mutate rs text =
  let special = "|()\n\r \t#xRbe\000\255" in
  let byte () =
    if Random.State.bool rs then special.[Random.State.int rs (String.length special)]
    else Char.chr (Random.State.int rs 256)
  in
  let b = Buffer.create (String.length text + 16) in
  Buffer.add_string b text;
  for _ = 1 to 1 + Random.State.int rs 4 do
    let s = Buffer.contents b in
    let n = String.length s in
    let at = if n = 0 then 0 else Random.State.int rs n in
    Buffer.clear b;
    match Random.State.int rs 4 with
    | 0 when n > 0 ->
      Buffer.add_string b (String.sub s 0 at);
      Buffer.add_char b (byte ());
      Buffer.add_string b (String.sub s (at + 1) (n - at - 1))
    | 1 when n > 0 ->
      Buffer.add_string b (String.sub s 0 at);
      Buffer.add_string b (String.sub s (at + 1) (n - at - 1))
    | 2 ->
      let len = min (n - at) (1 + Random.State.int rs 12) in
      Buffer.add_string b (String.sub s 0 (at + len));
      Buffer.add_string b (String.sub s at len);
      Buffer.add_string b (String.sub s (at + len) (n - at - len))
    | _ ->
      Buffer.add_string b (String.sub s 0 at);
      Buffer.add_char b (byte ());
      Buffer.add_string b (String.sub s at (n - at))
  done;
  Buffer.contents b

let arb_mutated =
  let gen rs =
    let len = 1 + Random.State.int rs 40 in
    let tr =
      Helpers.gen_trace_events ~threads:3 ~locks:2 ~vars:3 ~len ~complete:false rs
    in
    mutate rs (Parser.to_string tr)
  in
  QCheck.make ~print:String.escaped gen

let prop_mutated_text =
  QCheck.Test.make ~name:"mutated .std: scan agrees with the per-line parser" ~count:500
    arb_mutated (fun text -> fst (scanned text) = reference text)

(* The writer as it was before names were rendered once per trace: four
   pieces per event, each name looked up per event.  The window writer
   must give the same bytes. *)
let piecewise tr =
  let s =
    Option.value (Trace.symbols tr)
      ~default:{ Trace.Symbols.threads = [||]; locks = [||]; vars = [||] }
  in
  let b = Buffer.create 256 in
  let add = Buffer.add_string b in
  let target kw name =
    add kw;
    add name;
    add ")\n"
  in
  Trace.iter
    (fun (e : Event.t) ->
      add (Trace.Symbols.thread s e.thread);
      match e.op with
      | Event.Read x -> target "|r(" (Trace.Symbols.var s x)
      | Event.Write x -> target "|w(" (Trace.Symbols.var s x)
      | Event.Acquire l -> target "|acq(" (Trace.Symbols.lock s l)
      | Event.Release l -> target "|rel(" (Trace.Symbols.lock s l)
      | Event.Fork u -> target "|fork(" (Trace.Symbols.thread s u)
      | Event.Join u -> target "|join(" (Trace.Symbols.thread s u)
      | Event.Begin -> add "|begin\n"
      | Event.End -> add "|end\n")
    tr;
  Buffer.contents b

let test_writer_streams () =
  List.iter
    (fun (name, tr, _) ->
      let path = Filename.temp_file "aerodrome" ".std" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Parser.to_file path tr;
          Alcotest.(check string) name (Parser.to_string tr)
            (In_channel.with_open_bin path In_channel.input_all)))
    (( "unnamed",
       Trace.of_events [ Event.write 0 0; Event.fork 0 1; Event.acquire 1 0 ],
       `Serializable )
    :: Workloads.Scenarios.all)

let test_writer_piecewise () =
  let huge = String.make 100_000 'v' in
  List.iter
    (fun (name, tr, _) ->
      let path = Filename.temp_file "aerodrome" ".std" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Parser.to_file path tr;
          Alcotest.(check string) (name ^ ": to_string") (piecewise tr) (Parser.to_string tr);
          Alcotest.(check string) (name ^ ": to_file") (piecewise tr)
            (In_channel.with_open_bin path In_channel.input_all)))
    (( "unnamed",
       Trace.of_events [ Event.write 0 0; Event.fork 0 1; Event.acquire 1 0 ],
       `Serializable )
    :: ( "names longer than 7 bytes",
         Parser.parse_string_exn
           "main_thread|fork(worker_1)\nworker_1|begin\nworker_1|acq(the_lock_0)\n\
            worker_1|w(variable_10)\nworker_1|rel(the_lock_0)\nworker_1|end\n\
            main_thread|join(worker_1)\nmain_thread|r(variable_10)\n",
         `Serializable )
    :: ( "a name longer than the window",
         Parser.parse_string_exn ("t1|w(x)\nt1|w(" ^ huge ^ ")\nt2|r(x)\n"),
         `Serializable )
    :: Workloads.Scenarios.all)

(* A text trace whose thread names outgrow the packed word
   (Packed.max_tid + 1 of them) is a Parse_error on the first line past
   the limit.  The file holds one short line per name, about 15 MB, and
   reading it takes about 300 MB, so only the in-place scanner's check
   is exercised here, not the per-line fallback's. *)
let test_read_packed_overflow () =
  let limit = Packed.max_tid + 1 in
  let path = Filename.temp_file "aerodrome_overflow" ".std" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          for i = 0 to limit - 1 do
            Printf.fprintf oc "%x|b\n" i
          done;
          output_string oc "new|b\n");
      match Parser.read_packed path with
      | _ -> Alcotest.failf "read %d thread names" (limit + 1)
      | exception Parser.Parse_error e ->
        Alcotest.(check int) "line" (limit + 1) e.Parser.line;
        Alcotest.(check string) "message"
          (Printf.sprintf "more than %d threads: ids no longer fit a packed word"
             limit)
          e.Parser.message)

let suite =
  ( "parser",
    [
      Alcotest.test_case "basic" `Quick test_basic;
      Alcotest.test_case "all operations" `Quick test_all_ops;
      Alcotest.test_case "aliases/comments/extras" `Quick test_aliases_and_extras;
      Alcotest.test_case "symbols" `Quick test_symbols_preserved;
      Alcotest.test_case "errors" `Quick test_errors;
      Alcotest.test_case "scenario roundtrips" `Quick test_roundtrip_scenarios;
      Alcotest.test_case "file io" `Quick test_file_io;
      Alcotest.test_case "to_file bytes = to_string bytes" `Quick test_writer_streams;
      Alcotest.test_case "writer = piecewise renderer" `Quick test_writer_piecewise;
      Alcotest.test_case "read_packed = parse_string: scenarios, generated" `Quick
        test_read_packed_scenarios;
      Alcotest.test_case "read_packed = parse_string: non-canonical lines" `Quick
        test_read_packed_noncanonical;
      Alcotest.test_case "read_packed = parse_string: malformed lines" `Quick
        test_read_packed_malformed;
      Alcotest.test_case "read_packed = parse_string: window boundaries" `Quick
        test_read_packed_window;
      Alcotest.test_case "read_packed: checkpoints and a text timeout" `Quick
        test_read_packed_checkpoint;
      Alcotest.test_case "read_packed: too many threads for a packed word" `Slow
        test_read_packed_overflow;
    ]
    @ Helpers.qcheck_tests
        [ prop_roundtrip; prop_roundtrip_preserves_verdict; prop_mutated_text ] )
