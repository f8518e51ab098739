(* The multi-file fan-out: [run_many] on the work-stealing scheduler
   reports byte-for-byte what the sequential runner reports, per file
   and in input order, whether the files only fan out or also shard
   into chunk tasks on the same deques. *)

open Traces

(* --- Differential: scheduled runs equal the sequential runner --- *)

let checker : Aerodrome.Checker.t = (module Aerodrome.Opt)

(* Render a file report with the (run-dependent) seconds field zeroed:
   everything else — verdict, violation index, events_fed, error text —
   must be byte-identical across sequential and scheduled runs. *)
let normalized_report (fr : Analysis.Runner.file_report) =
  let fr =
    match fr.Analysis.Runner.report with
    | Ok r ->
      { fr with Analysis.Runner.report = Ok { r with Analysis.Runner.seconds = 0. } }
    | Error _ -> fr
  in
  Format.asprintf "%a" Analysis.Runner.pp_file_report fr

let corpus_dir () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "aerodrome-par-%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o700;
  dir

let build_corpus dir n =
  List.init n (fun i ->
      let shape =
        if i mod 2 = 0 then Workloads.Generator.Independent
        else Workloads.Generator.Anchored
      in
      let plan =
        if i mod 3 = 2 then
          Workloads.Generator.Violate_at (0.2 +. (float_of_int (i mod 7) /. 10.))
        else Workloads.Generator.Atomic
      in
      let threads = 2 + (i mod 5) in
      let config =
        {
          Workloads.Generator.default with
          seed = Int64.of_int (1000 + (i * 7919));
          events = 200 + (i * 131 mod 1300);
          threads = (if shape = Workloads.Generator.Anchored then max threads 4 else threads);
          locks = 2 + (i mod 4);
          vars = 256 + (i mod 3 * 100);
          shape;
          plan;
        }
      in
      let tr = Workloads.Generator.generate config in
      (* mostly binary (the service format); every 7th as text to cover
         the two-pass parser on a worker domain *)
      if i mod 7 = 3 then begin
        let path = Filename.concat dir (Printf.sprintf "t%03d.std" i) in
        Parser.to_file path tr;
        path
      end
      else begin
        let path = Filename.concat dir (Printf.sprintf "t%03d.bin" i) in
        Binfmt.write_file path tr;
        path
      end)

let test_differential_parallel_paths () =
  let dir = corpus_dir () in
  let n = 200 in
  let paths = build_corpus dir n in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths;
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let sequential =
        List.map
          (fun p ->
            normalized_report
              {
                Analysis.Runner.file = p;
                report = Analysis.Runner.run_file checker p;
              })
          paths
      in
      let scheduled ?shards domains =
        Parallel.Deque.with_scheduler domains (fun sched ->
            List.map normalized_report
              (Analysis.Runner.run_many ?shards ~sched checker paths))
      in
      (* at least one violating and one serializable report, or the
         comparison is vacuous *)
      let violating =
        List.filter (fun s -> Helpers.contains s "violation") sequential
      in
      Alcotest.(check bool) "corpus mixes verdicts" true
        (violating <> [] && List.length violating < n);
      List.iter
        (fun domains ->
          Alcotest.(check (list string))
            (Printf.sprintf "%d-domain fan-out reports byte-identical" domains)
            sequential (scheduled domains))
        [ 2; 4 ];
      (* file tasks that spawn forced chunk tasks on the same deques *)
      Alcotest.(check (list string))
        "fan-out + 3-chunk sharding reports byte-identical" sequential
        (scheduled ~shards:3 4))

let test_differential_errors_in_batch () =
  let dir = corpus_dir () in
  let good = Filename.concat dir "good.bin" in
  let broken = Filename.concat dir "broken.std" in
  let truncated = Filename.concat dir "truncated.bin" in
  Binfmt.write_file good
    (Workloads.Generator.generate Workloads.Generator.default);
  let oc = open_out broken in
  output_string oc "t1|begin\nt1|frobnicate\n";
  close_out oc;
  (* valid magic, then garbage: Corrupt at decode time *)
  let oc = open_out_bin truncated in
  output_string oc Binfmt.magic;
  output_string oc "\x01";
  close_out oc;
  let paths = [ good; broken; Filename.concat dir "absent.bin"; truncated ] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths;
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let seq =
        List.map
          (fun p ->
            normalized_report
              { Analysis.Runner.file = p; report = Analysis.Runner.run_file checker p })
          paths
      in
      List.iter
        (fun domains ->
          let par =
            Parallel.Deque.with_scheduler domains (fun sched ->
                List.map normalized_report
                  (Analysis.Runner.run_many ~sched checker paths))
          in
          Alcotest.(check (list string))
            (Printf.sprintf "%d-domain error reports byte-identical" domains)
            seq par)
        [ 2; 4 ];
      Alcotest.(check int) "every file got a report" 4 (List.length seq);
      Alcotest.(check bool) "good file still checked" true
        (Helpers.contains (List.nth seq 0) "serializable");
      List.iter
        (fun i ->
          Alcotest.(check bool)
            (Printf.sprintf "report %d is an error" i)
            true
            (Helpers.contains (List.nth seq i) "error:"))
        [ 1; 2; 3 ])

(* Without a scheduler [run_many] is [run_file] per path, in order; an
   empty batch yields no reports with or without one. *)
let test_run_many_sequential () =
  let dir = corpus_dir () in
  let paths = build_corpus dir 14 in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths;
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let per_file =
        List.map
          (fun p ->
            normalized_report
              { Analysis.Runner.file = p; report = Analysis.Runner.run_file checker p })
          paths
      in
      Alcotest.(check (list string))
        "run_many = run_file per path" per_file
        (List.map normalized_report (Analysis.Runner.run_many checker paths));
      Alcotest.(check int) "empty batch" 0
        (List.length (Analysis.Runner.run_many checker []));
      Parallel.Deque.with_scheduler 2 (fun sched ->
          Alcotest.(check int) "empty batch on a scheduler" 0
            (List.length (Analysis.Runner.run_many ~sched checker []));
          Alcotest.(check int) "nothing submitted" 0
            (Parallel.Deque.stats sched).Parallel.Deque.completed))

(* Task accounting of the two fan-out shapes.  A lone file runs on the
   calling domain: only its chunks are tasks, and all of them arrive
   through the injection queue.  Two files are two injected tasks whose
   chunks go onto the workers' own deques. *)
let test_lone_file_on_calling_domain () =
  (* counters read after shutdown: a promise resolves just before its
     task is counted *)
  let quiescent_run f =
    let sched = Parallel.Deque.create 2 in
    let r = f sched in
    Parallel.Deque.shutdown sched;
    (r, Parallel.Deque.stats sched)
  in
  let dir = corpus_dir () in
  let path = Filename.concat dir "lone.bin" in
  let tr =
    Workloads.Generator.generate
      {
        Workloads.Generator.default with
        events = 3000;
        threads = 4;
        plan = Workloads.Generator.Violate_at 0.6;
      }
  in
  Binfmt.write_file path tr;
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let sequential =
        normalized_report
          { Analysis.Runner.file = path; report = Analysis.Runner.run_file checker path }
      in
      Alcotest.(check bool) "trace violates" true
        (Helpers.contains sequential "violation");
      let lone, lone_stats =
        quiescent_run (fun sched ->
            Analysis.Runner.run_many ~shards:3 ~sched checker [ path ])
      in
      Alcotest.(check (list string)) "lone file report" [ sequential ]
        (List.map normalized_report lone);
      Alcotest.(check int) "three chunk tasks" 3 lone_stats.Parallel.Deque.completed;
      Alcotest.(check int) "all injected" 3 lone_stats.Parallel.Deque.injected;
      let pair, pair_stats =
        quiescent_run (fun sched ->
            Analysis.Runner.run_many ~shards:3 ~sched checker [ path; path ])
      in
      Alcotest.(check (list string)) "pair reports" [ sequential; sequential ]
        (List.map normalized_report pair);
      Alcotest.(check int) "two file tasks + six chunk tasks" 8
        pair_stats.Parallel.Deque.completed;
      Alcotest.(check int) "only the file tasks injected" 2
        pair_stats.Parallel.Deque.injected)

(* Sharding is exact only for the default checker without a deadline:
   another checker and a timed run stay on the sequential path even with
   a forced chunk count on a lent scheduler, submit no chunk task, and
   report what the plain run reports. *)
let test_unshardable_runs_stay_sequential () =
  let dir = corpus_dir () in
  let bin = Filename.concat dir "seq.bin" in
  let txt = Filename.concat dir "seq.std" in
  let tr =
    Workloads.Generator.generate
      {
        Workloads.Generator.default with
        events = 2000;
        threads = 3;
        plan = Workloads.Generator.Violate_at 0.4;
      }
  in
  Binfmt.write_file bin tr;
  Parser.to_file txt tr;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ bin; txt ];
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let report path r = normalized_report { Analysis.Runner.file = path; report = r } in
      (* the same run sequentially and on a lent scheduler with a forced
         3-chunk plan: the report, and the chunk tasks the scheduler ran *)
      let lent_run (label, path, checker, timeout) =
        let sequential = Analysis.Runner.run_file ?timeout checker path in
        let sched = Parallel.Deque.create 2 in
        let lent =
          Analysis.Runner.run_file ?timeout ~shards:3 ~sched checker path
        in
        Parallel.Deque.shutdown sched;
        Alcotest.(check string) (label ^ ": sequential report")
          (report path sequential) (report path lent);
        Alcotest.(check bool) (label ^ ": violation found") true
          (Helpers.contains (report path lent) "violation");
        (Parallel.Deque.stats sched).Parallel.Deque.completed
      in
      List.iter
        (fun ((label, _, _, _) as row) ->
          Alcotest.(check int) (label ^ ": no chunk task") 0 (lent_run row))
        [
          ("aerodrome-basic", bin, (module Aerodrome.Basic : Aerodrome.Checker.S), None);
          ("timed", bin, checker, Some 60.0);
        ];
      (* a text trace is scanned into a packed arena, so it shards like a
         binary one *)
      Alcotest.(check bool) "text: chunk tasks submitted" true
        (lent_run ("text", txt, checker, None) > 0))

let suite =
  ( "parallel",
    [
      Alcotest.test_case
        "differential: scheduler fan-out vs sequential (200 traces)" `Slow
        test_differential_parallel_paths;
      Alcotest.test_case "differential: per-file errors" `Quick
        test_differential_errors_in_batch;
      Alcotest.test_case "run_many: sequential and empty batches" `Quick
        test_run_many_sequential;
      Alcotest.test_case "run_many: lone file stays on the calling domain"
        `Quick test_lone_file_on_calling_domain;
      Alcotest.test_case "run_many: unshardable runs stay sequential" `Quick
        test_unshardable_runs_stay_sequential;
    ] )
