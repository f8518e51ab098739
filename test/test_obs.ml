(* Telemetry library tests: metric primitives, registry snapshots and
   diffs, JSON round-trips, the ambient scope, heartbeat rendering and
   Chrome trace export.  Tests that flip the process-wide [Obs.enabled]
   switch restore it on the way out so the rest of the suite (which
   asserts exact counter values with telemetry off) is unaffected. *)

let check = Alcotest.check

let with_telemetry on f =
  let was = Obs.on () in
  if on then Obs.enable () else Obs.disable ();
  Fun.protect
    ~finally:(fun () -> if was then Obs.enable () else Obs.disable ())
    f

(* --- primitives --- *)

let test_counter () =
  let c = Obs.Counter.make "c" in
  check Alcotest.int "zero" 0 (Obs.Counter.value c);
  Obs.Counter.inc c;
  Obs.Counter.add c 41;
  check Alcotest.int "42" 42 (Obs.Counter.value c);
  Obs.Counter.reset c;
  check Alcotest.int "reset" 0 (Obs.Counter.value c)

let test_shared_counter () =
  let c = Obs.Shared_counter.make "s" in
  let workers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              Obs.Shared_counter.inc c
            done))
  in
  List.iter Domain.join workers;
  check Alcotest.int "atomic increments" 4000 (Obs.Shared_counter.value c)

let test_gauge () =
  let g = Obs.Gauge.make "g" in
  Obs.Gauge.set g 2.5;
  Obs.Gauge.add g 0.5;
  check (Alcotest.float 1e-9) "add" 3.0 (Obs.Gauge.value g);
  Obs.Gauge.set_max g 1.0;
  check (Alcotest.float 1e-9) "set_max keeps peak" 3.0 (Obs.Gauge.value g);
  Obs.Gauge.set_max g 7.0;
  check (Alcotest.float 1e-9) "set_max raises" 7.0 (Obs.Gauge.value g);
  let init = Obs.Gauge.make ~init:(-1.0) "i" in
  check (Alcotest.float 1e-9) "init" (-1.0) (Obs.Gauge.value init)

let test_histogram_bucketing () =
  (* default bounds are upper-inclusive: 0 | 1 | 2 | 4 | ... | 128 | over *)
  let h = Obs.Histogram.make "h" in
  List.iter (Obs.Histogram.observe h) [ 0; 1; 2; 3; 4; 5; 128; 129; 10_000 ];
  let counts = Obs.Histogram.counts h in
  check Alcotest.int "v=0 -> bucket <=0" 1 counts.(0);
  check Alcotest.int "v=1 -> bucket <=1" 1 counts.(1);
  check Alcotest.int "v=2 -> bucket <=2" 1 counts.(2);
  check Alcotest.int "v in (2,4] -> bucket <=4" 2 counts.(3);
  check Alcotest.int "v=5 -> bucket <=8" 1 counts.(4);
  check Alcotest.int "v=128 -> last bounded bucket" 1 counts.(8);
  check Alcotest.int "overflow" 2 counts.(9);
  check Alcotest.int "total" 9 (Obs.Histogram.total h);
  check Alcotest.int "sum" (0 + 1 + 2 + 3 + 4 + 5 + 128 + 129 + 10_000)
    (Obs.Histogram.sum h);
  check (Alcotest.float 1e-9) "mean"
    (float_of_int (Obs.Histogram.sum h) /. 9.0)
    (Obs.Histogram.mean h);
  let empty = Obs.Histogram.make "e" in
  check (Alcotest.float 1e-9) "empty mean" 0.0 (Obs.Histogram.mean empty);
  Alcotest.check_raises "empty bounds" (Invalid_argument "Histogram.make: empty bounds")
    (fun () -> ignore (Obs.Histogram.make ~bounds:[||] "x"));
  Alcotest.check_raises "non-increasing bounds"
    (Invalid_argument "Histogram.make: bounds must be strictly increasing")
    (fun () -> ignore (Obs.Histogram.make ~bounds:[| 1; 1 |] "x"))

(* --- registry and snapshots --- *)

let test_registry_snapshot () =
  let reg = Obs.Registry.create () in
  let a = Obs.Registry.counter reg "a" in
  let b = Obs.Registry.counter reg "b" in
  let g = Obs.Registry.gauge reg "g" in
  let h = Obs.Registry.histogram reg "h" in
  Obs.Registry.probe reg "p" (fun () -> Obs.Snapshot.Int 7);
  Obs.Counter.add a 3;
  Obs.Counter.add b 5;
  Obs.Gauge.set g 1.5;
  Obs.Histogram.observe h 2;
  let snap = Obs.Registry.snapshot reg in
  check (Alcotest.list Alcotest.string) "registration order"
    [ "a"; "b"; "g"; "h"; "p" ]
    (List.map (fun (e : Obs.Snapshot.entry) -> e.name) snap);
  check (Alcotest.option Alcotest.int) "counter" (Some 3)
    (Obs.Snapshot.get_int snap "a");
  check (Alcotest.option (Alcotest.float 1e-9)) "gauge as float" (Some 1.5)
    (Obs.Snapshot.get_float snap "g");
  check (Alcotest.option (Alcotest.float 1e-9)) "int as float" (Some 5.0)
    (Obs.Snapshot.get_float snap "b");
  check (Alcotest.option Alcotest.int) "probe" (Some 7)
    (Obs.Snapshot.get_int snap "p");
  check (Alcotest.option Alcotest.int) "missing" None
    (Obs.Snapshot.get_int snap "zzz")

let test_snapshot_diff () =
  let reg = Obs.Registry.create () in
  let c = Obs.Registry.counter reg "c" in
  let h = Obs.Registry.histogram reg "h" in
  Obs.Counter.add c 10;
  Obs.Histogram.observe h 1;
  let before = Obs.Registry.snapshot reg in
  Obs.Counter.add c 32;
  Obs.Histogram.observe h 3;
  Obs.Histogram.observe h 200;
  let after = Obs.Registry.snapshot reg in
  let d = Obs.Snapshot.diff ~before ~after in
  check (Alcotest.option Alcotest.int) "counter delta" (Some 32)
    (Obs.Snapshot.get_int d "c");
  (match Obs.Snapshot.find d "h" with
  | Some { value = Obs.Snapshot.Hist { total; sum; counts; _ }; _ } ->
    check Alcotest.int "hist total delta" 2 total;
    check Alcotest.int "hist sum delta" 203 sum;
    check Alcotest.int "hist overflow delta" 1 counts.(Array.length counts - 1)
  | _ -> Alcotest.fail "expected a histogram entry");
  (* entries missing from [before] count from zero *)
  let d0 = Obs.Snapshot.diff ~before:Obs.Snapshot.empty ~after in
  check (Alcotest.option Alcotest.int) "no baseline" (Some 42)
    (Obs.Snapshot.get_int d0 "c")

(* --- merge --- *)

let names (t : Obs.Snapshot.t) = List.map (fun e -> e.Obs.Snapshot.name) t

let test_snapshot_merge () =
  let open Obs.Snapshot in
  let s = [ entry "a" (Int 1); entry "g" (Float 2.5) ] in
  (* the empty snapshot is a unit on either side *)
  check Alcotest.bool "empty left unit" true (merge [ empty; s ] = s);
  check Alcotest.bool "empty right unit" true (merge [ s; empty ] = s);
  check Alcotest.bool "all empty" true (merge [ empty; empty ] = empty);
  (* disjoint metric sets union, first-appearance order *)
  let t = [ entry "b" (Int 10) ] in
  let m = merge [ s; t ] in
  check (Alcotest.list Alcotest.string) "disjoint union order"
    [ "a"; "g"; "b" ] (names m);
  check (Alcotest.option Alcotest.int) "left survives" (Some 1)
    (Obs.Snapshot.get_int m "a");
  check (Alcotest.option Alcotest.int) "right survives" (Some 10)
    (Obs.Snapshot.get_int m "b");
  (* overlapping: counters add, gauges keep their maximum *)
  let m2 = merge [ s; [ entry "a" (Int 41); entry "g" (Float 1.0) ] ] in
  check (Alcotest.option Alcotest.int) "counters add" (Some 42)
    (Obs.Snapshot.get_int m2 "a");
  check (Alcotest.option (Alcotest.float 1e-9)) "gauges max" (Some 2.5)
    (Obs.Snapshot.get_float m2 "g")

let test_snapshot_merge_hist_mismatch () =
  let open Obs.Snapshot in
  let hist bounds counts total sum = Hist { bounds; counts; total; sum } in
  let h1 = [ entry "h" (hist [| 1; 2 |] [| 1; 0; 0 |] 1 1) ] in
  let h2 = [ entry "h" (hist [| 1; 2 |] [| 0; 2; 0 |] 2 4) ] in
  (* equal bounds: buckets add *)
  (match merge [ h1; h2 ] with
  | [ { value = Hist { counts; total; sum; _ }; _ } ] ->
    check Alcotest.int "total adds" 3 total;
    check Alcotest.int "sum adds" 5 sum;
    check (Alcotest.array Alcotest.int) "counts add" [| 1; 2; 0 |] counts
  | _ -> Alcotest.fail "expected one merged histogram");
  (* mismatched bucket bounds must refuse, not silently misalign *)
  let h3 = [ entry "h" (hist [| 1; 4 |] [| 0; 0; 1 |] 1 9) ] in
  check Alcotest.bool "mismatched bounds refused" true
    (match merge [ h1; h3 ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* a different arity is a mismatch too *)
  let h4 = [ entry "h" (hist [| 1 |] [| 0; 1 |] 1 2) ] in
  check Alcotest.bool "mismatched arity refused" true
    (match merge [ h1; h4 ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_snapshot_merge_associative () =
  let open Obs.Snapshot in
  let hist bounds counts total sum = Hist { bounds; counts; total; sum } in
  let x =
    [ entry "c" (Int 1); entry "g" (Float 1.0);
      entry "h" (hist [| 8 |] [| 1; 0 |] 1 3) ]
  in
  let y = [ entry "c" (Int 2); entry "d" (Int 7) ] in
  let z =
    [ entry "g" (Float 9.0); entry "h" (hist [| 8 |] [| 0; 2 |] 2 40) ]
  in
  let left = merge [ merge [ x; y ]; z ] in
  let right = merge [ x; merge [ y; z ] ] in
  let flat = merge [ x; y; z ] in
  check Alcotest.bool "left = right" true (left = right);
  check Alcotest.bool "left = flat" true (left = flat);
  check (Alcotest.option Alcotest.int) "summed counter" (Some 3)
    (Obs.Snapshot.get_int flat "c")

let test_snapshot_sorted () =
  let open Obs.Snapshot in
  let s = [ entry "z" (Int 1); entry "a" (Int 2); entry "m" (Int 3) ] in
  check (Alcotest.list Alcotest.string) "name order" [ "a"; "m"; "z" ]
    (names (sorted s));
  (* stable: duplicate names keep their relative order *)
  let dup = [ entry "k" (Int 1); entry "k" (Int 2) ] in
  check Alcotest.bool "stable on duplicates" true (sorted dup = dup)

(* --- exporter rendering --- *)

let test_exporter_exposition () =
  let reg = Obs.Registry.create () in
  let c = Obs.Registry.counter reg "events.total" in
  let g = Obs.Registry.gauge reg "heap.peak_words" in
  let h = Obs.Registry.histogram reg "sets.stale_readers" in
  Obs.Counter.add c 12;
  Obs.Gauge.set g 3.5;
  Obs.Histogram.observe h 2;
  Obs.Registry.probe reg "decision.exec" (fun () -> Obs.Snapshot.Label "sequential");
  let series =
    Obs.Exporter.of_snapshot (Obs.Registry.snapshot reg)
    @ Obs.Exporter.of_snapshot ~labels:[ ("file", "a.bin") ]
        [ Obs.Snapshot.entry "decision.exec" (Obs.Snapshot.Label "stealing") ]
  in
  let body = Obs.Exporter.render series in
  (match Obs.Exporter.validate body with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("exposition rejected: " ^ msg));
  let contains needle =
    let nl = String.length needle and bl = String.length body in
    let rec go i = i + nl <= bl && (String.sub body i nl = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "counter family" true
    (contains "# TYPE aerodrome_events_total counter");
  check Alcotest.bool "counter sample" true (contains "aerodrome_events_total 12");
  check Alcotest.bool "gauge sample" true (contains "aerodrome_heap_peak_words 3.5");
  check Alcotest.bool "histogram +Inf bucket" true
    (contains "le=\"+Inf\"");
  (* a categorical reading is a gauge of 1 labelled with its value *)
  check Alcotest.bool "label family" true
    (contains "# TYPE aerodrome_decision_exec gauge");
  check Alcotest.bool "label sample" true
    (contains "aerodrome_decision_exec{exec=\"sequential\"} 1\n");
  check Alcotest.bool "label sample with run labels" true
    (contains "aerodrome_decision_exec{file=\"a.bin\",exec=\"stealing\"} 1\n");
  check Alcotest.string "label in --stats" "sequential"
    (Format.asprintf "%a" Obs.Snapshot.pp_value (Obs.Snapshot.Label "sequential"));
  check Alcotest.bool "label in --stats-json" true
    (Obs.Snapshot.value_to_json (Obs.Snapshot.Label "sequential")
    = Obs.Json.Str "sequential");
  check Alcotest.bool "terminated" true (contains "# EOF");
  (* the validator is strict: truncation and malformed lines are rejected *)
  check Alcotest.bool "truncated rejected" true
    (match Obs.Exporter.validate (String.sub body 0 (String.length body / 2)) with
    | Error _ -> true
    | Ok () -> false);
  check Alcotest.bool "garbage rejected" true
    (match Obs.Exporter.validate "aerodrome_x{ 1\n# EOF\n" with
    | Error _ -> true
    | Ok () -> false)

let test_exporter_serve_fetch () =
  (* round-trip the HTTP responder over both address families with a
     canned page, so the test is independent of live-registry contents *)
  let reg = Obs.Registry.create () in
  Obs.Counter.add (Obs.Registry.counter reg "events.total") 7;
  let canned =
    Obs.Exporter.render (Obs.Exporter.of_snapshot (Obs.Registry.snapshot reg))
  in
  let roundtrip addr =
    match Obs.Exporter.serve ~page:(fun () -> canned) addr with
    | Error msg -> Alcotest.fail msg
    | Ok srv ->
      Fun.protect
        ~finally:(fun () -> Obs.Exporter.stop srv)
        (fun () ->
          let bound = Obs.Exporter.bound srv in
          (match Obs.Exporter.fetch bound with
          | Ok body -> check Alcotest.string "served body round-trips" canned body
          | Error msg -> Alcotest.fail msg);
          (* unknown paths are a scrape error, not a hang *)
          match Obs.Exporter.fetch ~path:"/nope" bound with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "expected a 404 scrape error")
  in
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "obs-test-%d.sock" (Unix.getpid ()))
  in
  roundtrip ("unix:" ^ sock);
  check Alcotest.bool "unix socket unlinked on stop" false (Sys.file_exists sock);
  roundtrip "127.0.0.1:0";
  (* a dead endpoint is a connection error, not a crash *)
  match Obs.Exporter.fetch ("unix:" ^ sock) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a connection error"

(* --- JSON --- *)

let test_json_roundtrip () =
  let v =
    Obs.Json.Obj
      [
        ("null", Obs.Json.Null);
        ("t", Obs.Json.Bool true);
        ("f", Obs.Json.Bool false);
        ("int", Obs.Json.Num 42.0);
        ("neg", Obs.Json.Num (-7.0));
        ("frac", Obs.Json.Num 1.5);
        ("str", Obs.Json.Str "a\"b\\c\nd");
        ("list", Obs.Json.List [ Obs.Json.Num 1.0; Obs.Json.Str "x" ]);
        ("empty_list", Obs.Json.List []);
        ("empty_obj", Obs.Json.Obj []);
      ]
  in
  let text = Obs.Json.to_string v in
  (match Obs.Json.parse text with
  | Ok v' -> check Alcotest.bool "round-trip" true (v = v')
  | Error msg -> Alcotest.fail msg);
  check Alcotest.bool "truncated input rejected" true
    (match Obs.Json.parse "{\"a\": 1" with Error _ -> true | Ok _ -> false);
  check Alcotest.bool "trailing garbage rejected" true
    (match Obs.Json.parse "1 2" with Error _ -> true | Ok _ -> false);
  (* non-finite numbers serialize as null (JSON has no NaN) *)
  check Alcotest.string "nan -> null" "null"
    (Obs.Json.to_string (Obs.Json.Num Float.nan));
  (* member lookup *)
  (match Obs.Json.member "int" v with
  | Some (Obs.Json.Num f) -> check (Alcotest.float 1e-9) "member" 42.0 f
  | _ -> Alcotest.fail "member lookup failed")

let test_snapshot_json () =
  let reg = Obs.Registry.create () in
  let c = Obs.Registry.counter reg "events.total" in
  let h = Obs.Registry.histogram reg "sizes" in
  Obs.Counter.add c 9;
  Obs.Histogram.observe h 3;
  let json = Obs.Snapshot.to_json (Obs.Registry.snapshot reg) in
  let text = Obs.Json.to_string json in
  match Obs.Json.parse text with
  | Error msg -> Alcotest.fail msg
  | Ok v -> (
    (match Obs.Json.member "events.total" v with
    | Some (Obs.Json.Num f) -> check (Alcotest.float 1e-9) "counter" 9.0 f
    | _ -> Alcotest.fail "missing counter");
    match Obs.Json.member "sizes" v with
    | Some (Obs.Json.Obj _ as hist) ->
      (match Obs.Json.member "total" hist with
      | Some (Obs.Json.Num f) -> check (Alcotest.float 1e-9) "hist total" 1.0 f
      | _ -> Alcotest.fail "histogram lost its total")
    | _ -> Alcotest.fail "missing histogram")

(* --- ambient scope --- *)

let test_scope_collect () =
  check Alcotest.bool "inactive outside" false (Obs.Scope.active ());
  let result, snap =
    Obs.Scope.collect (fun () ->
        check Alcotest.bool "active inside" true (Obs.Scope.active ());
        let reg = Obs.Registry.create () in
        Obs.Scope.attach reg;
        let c = Obs.Registry.counter reg "inner" in
        Obs.Counter.add c 5;
        "done")
  in
  check Alcotest.string "result" "done" result;
  check (Alcotest.option Alcotest.int) "harvested" (Some 5)
    (Obs.Snapshot.get_int snap "inner");
  check Alcotest.bool "restored" false (Obs.Scope.active ());
  (* exceptions restore the saved scope *)
  (try ignore (Obs.Scope.collect (fun () -> failwith "boom"))
   with Failure _ -> ());
  check Alcotest.bool "restored after raise" false (Obs.Scope.active ())

let test_scope_feeds_runner () =
  (* telemetry on: the checker's Cmetrics registry lands in the result *)
  with_telemetry true (fun () ->
      let r =
        Analysis.Runner.run (module Aerodrome.Opt) Workloads.Scenarios.rho1
      in
      check (Alcotest.option Alcotest.int) "events.total" (Some 10)
        (Obs.Snapshot.get_int r.Analysis.Runner.metrics "events.total"));
  (* telemetry off: the snapshot is empty and counters stay silent *)
  with_telemetry false (fun () ->
      let r =
        Analysis.Runner.run (module Aerodrome.Opt) Workloads.Scenarios.rho1
      in
      check Alcotest.bool "empty metrics" true
        (r.Analysis.Runner.metrics = Obs.Snapshot.empty))

let test_violation_metrics () =
  with_telemetry true (fun () ->
      let r =
        Analysis.Runner.run (module Aerodrome.Opt) Workloads.Scenarios.rho2
      in
      check Alcotest.bool "violating" true (Analysis.Runner.violating r);
      (match Obs.Snapshot.get_float r.Analysis.Runner.metrics "violation.index" with
      | Some idx -> check Alcotest.bool "violation index recorded" true (idx >= 0.0)
      | None -> Alcotest.fail "violation.index missing");
      match Obs.Snapshot.get_float r.Analysis.Runner.metrics "violation.seconds" with
      | Some s -> check Alcotest.bool "time-to-violation" true (s >= 0.0)
      | None -> Alcotest.fail "violation.seconds missing")

(* --- heartbeat --- *)

let test_heartbeat () =
  let buf = Buffer.create 256 in
  let out = Format.formatter_of_buffer buf in
  let hb = Obs.Heartbeat.create ~out ~every:10 ~label:"hb" () in
  Obs.Heartbeat.set_total hb 40;
  Obs.Heartbeat.tick hb 3;
  Format.pp_print_flush out ();
  check Alcotest.string "below threshold: silent" "" (Buffer.contents buf);
  Obs.Heartbeat.tick hb 10;
  Obs.Heartbeat.tick hb 12;
  Format.pp_print_flush out ();
  let line = Buffer.contents buf in
  check Alcotest.bool "one line at the threshold" true
    (String.starts_with ~prefix:"[hb] 10 events" line);
  check Alcotest.bool "rates rendered" true
    (String.length line > 0
    && String.index_opt line '\n' = Some (String.length line - 1));
  (* a counter reset (new file) re-arms instead of going silent *)
  Buffer.clear buf;
  Obs.Heartbeat.tick hb 2;
  Obs.Heartbeat.tick hb 10;
  Format.pp_print_flush out ();
  check Alcotest.bool "restarted for a new run" true
    (String.starts_with ~prefix:"[hb] 10 events" (Buffer.contents buf))

let test_heartbeat_humanize () =
  check Alcotest.string "plain" "9999" (Obs.Heartbeat.humanize 9999);
  check Alcotest.string "K" "53.2K" (Obs.Heartbeat.humanize 53_200);
  check Alcotest.string "M" "1.5M" (Obs.Heartbeat.humanize 1_500_000);
  check Alcotest.string "B" "2.40B" (Obs.Heartbeat.humanize 2_400_000_000)

(* --- chrome trace --- *)

let test_chrome_trace () =
  check Alcotest.bool "inactive by default" false (Obs.Chrome_trace.active ());
  let c = Obs.Chrome_trace.start () in
  Fun.protect ~finally:Obs.Chrome_trace.stop (fun () ->
      Obs.Chrome_trace.span ~cat:"test" "work" (fun () -> ignore (Sys.opaque_identity 1));
      Obs.Chrome_trace.instant ~cat:"test" "marker";
      let path = Filename.temp_file "obs-test" ".json" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Obs.Chrome_trace.write_file path c;
          let ic = open_in_bin path in
          let text =
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          match Obs.Json.parse text with
          | Error msg -> Alcotest.fail msg
          | Ok v -> (
            match Obs.Json.member "traceEvents" v with
            | Some (Obs.Json.List evs) ->
              check Alcotest.int "span + instant" 2 (List.length evs);
              let phases =
                List.filter_map
                  (fun e ->
                    match Obs.Json.member "ph" e with
                    | Some (Obs.Json.Str p) -> Some p
                    | _ -> None)
                  evs
              in
              check (Alcotest.list Alcotest.string) "phases" [ "X"; "i" ] phases
            | _ -> Alcotest.fail "missing traceEvents")))

let test_chrome_trace_limit () =
  let c = Obs.Chrome_trace.start ~limit:1 () in
  Fun.protect ~finally:Obs.Chrome_trace.stop (fun () ->
      Obs.Chrome_trace.instant "one";
      Obs.Chrome_trace.instant "two";
      Obs.Chrome_trace.instant "three";
      check Alcotest.int "events over the cap are dropped" 2
        (Obs.Chrome_trace.dropped c))

let suite =
  ( "obs",
    [
      Alcotest.test_case "counter" `Quick test_counter;
      Alcotest.test_case "shared counter" `Quick test_shared_counter;
      Alcotest.test_case "gauge" `Quick test_gauge;
      Alcotest.test_case "histogram bucketing" `Quick test_histogram_bucketing;
      Alcotest.test_case "registry snapshot" `Quick test_registry_snapshot;
      Alcotest.test_case "snapshot diff" `Quick test_snapshot_diff;
      Alcotest.test_case "snapshot merge" `Quick test_snapshot_merge;
      Alcotest.test_case "merge histogram mismatch" `Quick
        test_snapshot_merge_hist_mismatch;
      Alcotest.test_case "merge associativity" `Quick
        test_snapshot_merge_associative;
      Alcotest.test_case "snapshot sorted" `Quick test_snapshot_sorted;
      Alcotest.test_case "exporter exposition" `Quick test_exporter_exposition;
      Alcotest.test_case "exporter serve/fetch" `Quick test_exporter_serve_fetch;
      Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
      Alcotest.test_case "snapshot json" `Quick test_snapshot_json;
      Alcotest.test_case "scope collect" `Quick test_scope_collect;
      Alcotest.test_case "scope feeds runner" `Quick test_scope_feeds_runner;
      Alcotest.test_case "violation metrics" `Quick test_violation_metrics;
      Alcotest.test_case "heartbeat" `Quick test_heartbeat;
      Alcotest.test_case "heartbeat humanize" `Quick test_heartbeat_humanize;
      Alcotest.test_case "chrome trace" `Quick test_chrome_trace;
      Alcotest.test_case "chrome trace limit" `Quick test_chrome_trace_limit;
    ] )
