(* End-to-end benchmark of `rapid check` over five trace shapes.

   One workload:
     suite.exe --workload NAME --seed N --seconds S --trace 0|1
   generates the workload's trace from the seed, writes it through the
   program's writer, derives the expected report from an independent
   checker, and then either times the `rapid check` binary as a child
   process (--trace 0: end-to-end metrics) or runs the traced pass over
   each layer's public functions (--trace 1: per-layer metrics).  The last
   line of standard output is one JSON object with the metrics.

   All workloads:  suite.exe [--seed N | --seeds N,M,..] [--reverse] --out DIR
   Comparison:     suite.exe --compare A.json B.json [--bounds BENCHMARK.json]
   Trace check:    suite.exe --check-trace DIR/trace.json

   README.md describes the workloads and metrics. *)

let now = Spans.now

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seeds : int list;
  mutable seconds : float;
  mutable trace : bool;
  mutable scale : float;
  mutable out : string;
  mutable rapid : string;
  mutable reverse : bool;
  mutable compare : (string * string) option;
  mutable bounds : string;
  mutable check_trace : string option;
}

let opts =
  {
    workload = None;
    seed = 1;
    seeds = [];
    seconds = 15.;
    trace = false;
    (* one `rapid check` takes 0.3-0.6 s on 2 cores at this size *)
    scale = 0.25;
    out = "bench/suite/_work";
    rapid = "rapid";
    reverse = false;
    compare = None;
    bounds = "BENCHMARK.json";
    check_trace = None;
  }

(* Timed writes of the input per run; their median is setup_s. *)
let setup_writes = 5

(* Timed `rapid check` runs at least, after one warm-up run. *)
let min_runs = 3

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("suite: " ^ s);
      exit 2)
    fmt

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let print_metrics workload metrics =
  List.iter
    (fun (name, (s : Stats.t)) ->
      Printf.printf "%-15s %-29s %14.6g %-12s p25 %-12.6g p75 %-12.6g n %d\n" workload
        name s.value (Metrics.unit_of name) s.p25 s.p75 s.n)
    metrics

(* --- one workload --- *)

type input = {
  expected : Workload.expected;
  events : int;  (** input events *)
  bin : string;
  std : string;
  setup_s : float list;
}

(* Generates the trace, derives the oracle and writes the input
   [setup_writes] times (plus the other format once, for the traced
   pass).  The trace is dropped and the heap compacted before returning,
   so that no generator garbage is collected while timing. *)
let prepare (w : Workload.t) ~dir =
  let input =
    let events = max 1000 (int_of_float (float_of_int w.events *. opts.scale)) in
    let tr = w.generate ~seed:(Int64.of_int opts.seed) ~events in
    let bin = Filename.concat dir "input.bin" in
    let std = Filename.concat dir "input.std" in
    let write_bin () = Traces.Binfmt.write_file bin tr
    and write_std () = Traces.Parser.to_file std tr in
    let main, other =
      match w.format with
      | Binary -> (write_bin, write_std)
      | Text -> (write_std, write_bin)
    in
    let setup_s =
      List.init setup_writes (fun _ ->
          let start = now () in
          main ();
          now () -. start)
    in
    if opts.trace then other ();
    let expected = Workload.expected w tr in
    { expected; events = Traces.Trace.length tr; bin; std; setup_s }
  in
  Gc.compact ();
  input

let rapid_check (w : Workload.t) input ~out =
  let file = match w.format with Binary -> input.bin | Text -> input.std in
  let r = Child.run ~out opts.rapid (("check" :: Workload.flags w) @ [ file ]) in
  let report = Workload.mask_time (String.trim r.stdout) in
  let code = Workload.exit_code input.expected in
  let expected = Workload.report input.expected in
  let ok = r.exit_code = code && report = expected in
  if not ok then
    Printf.eprintf "suite: %s: rapid check exited %d with %S, expected %d with %S\n%!"
      w.name r.exit_code report code expected;
  (r, ok)

type measured = {
  metrics : (string * Stats.t) list;
  attempted : int;
  failed : int;
}

let end_to_end (w : Workload.t) input ~out =
  let attempted = ref 0 and failed = ref 0 in
  let run () =
    let r, ok = rapid_check w input ~out in
    incr attempted;
    if not ok then incr failed;
    r
  in
  ignore (run ());
  let start = now () in
  let runs = ref [] in
  while List.length !runs < min_runs || now () -. start < opts.seconds do
    runs := run () :: !runs
  done;
  let of_runs name f = (name, Metrics.summarize name (List.rev_map f !runs)) in
  let events = float_of_int input.events in
  {
    metrics =
      [
        of_runs "wall_s" (fun r -> r.Child.wall_s);
        of_runs "input_mev_s" (fun r -> events /. r.Child.wall_s /. 1e6);
        of_runs "cpu_s" (fun r -> r.Child.cpu_s);
        of_runs "peak_rss_mb" (fun r -> r.Child.peak_rss_mb);
        ("setup_s", Metrics.summarize "setup_s" input.setup_s);
        ("fail_frac", Stats.of_samples [ float_of_int !failed /. float_of_int !attempted ]);
      ];
    attempted = !attempted;
    failed = !failed;
  }

(* Repetitions of [rapid check; traced pass] until [opts.seconds]; each
   child's wall time pairs with its pass's runner.wall_s to give
   cli.overhead_s. *)
let traced (w : Workload.t) input ~out =
  let attempted = ref 0 and failed = ref 0 in
  let note ok =
    incr attempted;
    if not ok then incr failed
  in
  note (snd (rapid_check w input ~out));
  let start = now () in
  let reps = ref [] in
  while !reps = [] || now () -. start < opts.seconds do
    Spans.current_run := List.length !reps;
    let r, ok = rapid_check w input ~out in
    note ok;
    let pass = Layers.pass w ~bin:input.bin ~std:input.std input.expected in
    List.iter (Printf.eprintf "suite: %s: %s\n%!" w.name) pass.mismatches;
    note (pass.mismatches = []);
    let overhead = r.wall_s -. List.assoc "runner.wall_s" pass.metrics in
    reps := (("cli.overhead_s", overhead) :: pass.metrics) :: !reps
  done;
  {
    metrics =
      List.map
        (fun (m : Metrics.spec) ->
          (m.name, Stats.of_samples (List.rev_map (List.assoc m.name) !reps)))
        (Metrics.layers @ Metrics.recorded_layers);
    attempted = !attempted;
    failed = !failed;
  }

let workload_json (w : Workload.t) ~seeds ~events ~load_before ~load_after fields =
  Results.(
    J.Obj
      ([
         ("name", J.Str w.name);
         ("input", J.Str w.input);
         ("flags", strs (Workload.flags w));
         ("events", int events);
         ("seeds", J.List (List.map int seeds));
         ("path", strs (Workload.path w ~events));
         ("load_before", J.List (List.map num load_before));
         ("load_after", J.List (List.map num load_after));
       ]
      @ fields))

let section ~trace = if trace then "layers" else "metrics"

(* Per-invocation files, in the workload's directory under [opts.out]. *)
let result_file ~trace seed = Printf.sprintf "seed-%d.%s.json" seed (section ~trace)
let trace_file seed = Printf.sprintf "seed-%d.trace.json" seed
let provenance seeds = Results.provenance ~rapid:opts.rapid ~seeds ~scale:opts.scale

let run_workload (w : Workload.t) =
  let dir = Filename.concat opts.out w.name in
  mkdir_p dir;
  let load_before = Results.load_average () in
  let input = prepare w ~dir in
  let out = Filename.concat dir "rapid.out" in
  let m = (if opts.trace then traced else end_to_end) w input ~out in
  let load_after = Results.load_average () in
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ input.bin; input.std ];
  print_metrics w.name m.metrics;
  let seeds = [ opts.seed ] in
  Results.write
    (Filename.concat dir (result_file ~trace:opts.trace opts.seed))
    (Results.document ~provenance:(provenance seeds)
       [
         workload_json w ~seeds ~events:input.events ~load_before ~load_after
           [
             ("expected", Str (Workload.report input.expected));
             ("attempted", Results.int m.attempted);
             ("failed", Results.int m.failed);
             (section ~trace:opts.trace, Results.metrics_json m.metrics);
           ];
       ]);
  if opts.trace then
    Results.write
      (Filename.concat dir (trace_file opts.seed))
      (Results.trace_document (Spans.to_json ~pid:1));
  let shown = if opts.trace then Metrics.layers else Metrics.end_to_end in
  let metric (s : Metrics.spec) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" s.name
      (List.assoc s.name m.metrics).value s.unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (m.failed = 0) m.attempted m.failed
    (String.concat ", " (List.map metric shown));
  if m.failed > 0 then exit 1

(* --- all workloads --- *)

(* Each workload and seed runs in its own invocation of this executable,
   exactly as the single-workload command does, one at a time; the traced
   pass runs once per workload, on the first seed.  Across several seeds a
   metric's samples are the per-seed values, and their median is reported,
   as a reader of the single-workload command would pool them. *)
let run_all () =
  let seeds = if opts.seeds = [] then [ opts.seed ] else opts.seeds in
  let workloads = if opts.reverse then List.rev Workload.all else Workload.all in
  let failed_invocation = ref false in
  let invoke (w : Workload.t) seed ~trace =
    let dir = Filename.concat opts.out w.name in
    mkdir_p dir;
    let log = Filename.concat dir (Printf.sprintf "seed-%d.%s.log" seed (section ~trace)) in
    let result = Filename.concat dir (result_file ~trace seed) in
    if Sys.file_exists result then Sys.remove result;
    let r =
      Child.run ~out:log Sys.executable_name
        [
          "--workload"; w.name;
          "--seed"; string_of_int seed;
          "--seconds"; Printf.sprintf "%.17g" opts.seconds;
          "--trace"; (if trace then "1" else "0");
          "--scale"; Printf.sprintf "%.17g" opts.scale;
          "--out"; opts.out;
          "--rapid"; opts.rapid;
        ]
    in
    if r.exit_code <> 0 then begin
      failed_invocation := true;
      Printf.eprintf "suite: %s, seed %d, --trace %b: exit %d, see %s.err\n%!" w.name
        seed trace r.exit_code log
    end;
    match Results.read result with
    | doc -> Some (snd (List.hd (Results.workloads doc)))
    | exception Sys_error _ -> None
  in
  let sum key docs =
    List.fold_left
      (fun acc d -> acc + int_of_float (Results.to_num (Results.field key d)))
      0 docs
  in
  (* one seed: that run's own spread; several: the spread of their values *)
  let pooled section docs =
    match docs with
    | [] -> []
    | [ d ] ->
      List.map
        (fun (k, v) -> (k, Results.stats_of v))
        (Results.to_obj (Results.field section d))
    | d :: _ ->
      List.map
        (fun (name, _) ->
          let value d =
            Option.map (fun (s : Stats.t) -> s.value) (Results.metric d section name)
          in
          (name, Stats.of_samples (List.filter_map value docs)))
        (Results.to_obj (Results.field section d))
  in
  let row i (w : Workload.t) =
    let load_before = Results.load_average () in
    let e2e = List.filter_map (fun seed -> invoke w seed ~trace:false) seeds in
    let layers = Option.to_list (invoke w (List.hd seeds) ~trace:true) in
    let load_after = Results.load_average () in
    let attempted = sum "attempted" e2e and failed = sum "failed" e2e in
    let fail_frac = float_of_int failed /. float_of_int (max 1 attempted) in
    let metrics =
      List.map
        (fun (k, s) ->
          if k = Metrics.fail_frac.name then (k, Stats.of_samples [ fail_frac ]) else (k, s))
        (pooled "metrics" e2e)
    and layer_metrics = pooled "layers" layers in
    print_metrics w.name (metrics @ layer_metrics);
    let trace_events =
      let dir = Filename.concat opts.out w.name in
      match Results.read (Filename.concat dir (trace_file (List.hd seeds))) with
      | doc -> Results.relabel ~pid:(i + 1) ~process:w.name doc
      | exception Sys_error _ -> []
    in
    ( workload_json w ~seeds
        ~events:(match e2e with d :: _ -> sum "events" [ d ] | [] -> 0)
        ~load_before ~load_after
        [
          ("attempted", Results.int (attempted + sum "attempted" layers));
          ("failed", Results.int (failed + sum "failed" layers));
          ("metrics", Results.metrics_json metrics);
          ("layers", Results.metrics_json layer_metrics);
        ],
      trace_events )
  in
  let rows, traces = List.split (List.mapi row workloads) in
  Results.write
    (Filename.concat opts.out "results.json")
    (Results.document ~provenance:(provenance seeds) rows);
  Results.write
    (Filename.concat opts.out "trace.json")
    (Results.trace_document (List.concat traces));
  if !failed_invocation then exit 1

let () =
  let compare_a = ref "" in
  let set_seeds s = opts.seeds <- List.map int_of_string (String.split_on_char ',' s) in
  Arg.parse
    [
      ("--workload", String (fun s -> opts.workload <- Some s), "NAME run one workload");
      ("--seed", Int (fun n -> opts.seed <- n), "N seed of the inputs (default 1)");
      ("--seeds", String set_seeds, "N,M,.. run every workload once per seed");
      ("--seconds", Float (fun s -> opts.seconds <- s), "S how long to measure (default 15)");
      ( "--trace",
        Int (fun n -> opts.trace <- n <> 0),
        "0|1 end-to-end metrics (0, the default) or the traced per-layer pass (1)" );
      ("--scale", Float (fun f -> opts.scale <- f), "F workload size factor (default 0.25)");
      ("--out", String (fun d -> opts.out <- d), "DIR inputs and results");
      ("--rapid", String (fun p -> opts.rapid <- p), "PATH the rapid binary (default: rapid)");
      ("--reverse", Unit (fun () -> opts.reverse <- true), " run the workloads in reverse");
      ( "--compare",
        Tuple [ Set_string compare_a; String (fun b -> opts.compare <- Some (!compare_a, b)) ],
        "A.json B.json compare two results files" );
      ("--bounds", String (fun p -> opts.bounds <- p), "FILE bounds for --compare");
      ("--check-trace", String (fun p -> opts.check_trace <- Some p), "FILE check a trace");
    ]
    (fun a -> fail "unexpected argument %S" a)
    "suite.exe [options]";
  match (opts.compare, opts.check_trace, opts.workload) with
  | Some (a, b), _, _ -> (
    match Results.compare ~bounds:opts.bounds a b with
    | true -> exit 1
    | false -> ()
    | exception (Obs.Json.Parse_error msg | Sys_error msg) -> fail "--compare: %s" msg)
  | None, Some path, _ -> (
    match Results.check_trace path with
    | Ok roots -> Printf.printf "trace ok: every span's parent resolves, %d passes\n" roots
    | Error msg -> fail "%s: %s" path msg)
  | None, None, Some name -> (
    match Workload.find name with
    | Some w -> run_workload w
    | None -> fail "unknown workload %S" name)
  | None, None, None -> run_all ()
