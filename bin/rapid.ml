(* rapid: command-line driver mirroring the paper's RAPID tool.

   Subcommands:
     metainfo  — trace statistics (RAPID's MetaInfo class)
     check     — run an atomicity checker on a trace file
     generate  — produce a synthetic trace (benchmark profile or custom)
     profiles  — list benchmark profiles
     table     — regenerate a paper table (also available via bench/main.exe) *)

open Cmdliner

(* Trace files are auto-detected: binary (Binfmt magic) or text. *)
let read_trace path =
  if Traces.Binfmt.is_binary path then
    try Traces.Binfmt.read_file path
    with Traces.Binfmt.Corrupt msg ->
      Format.eprintf "%s@." msg;
      exit 2
  else
    match Traces.Parser.parse_file path with
    | Ok tr -> tr
    | Error e ->
      Format.eprintf "%s: %a@." path Traces.Parser.pp_error e;
      exit 2

(* Write an output file through [write] into a temporary sibling that
   is renamed over [out] once complete, so a failed write never leaves a
   partial output.  An existing target that is not a regular file (a
   device such as /dev/stdout, a pipe, a symbolic link) is written in
   place. *)
let write_output out write =
  match (Unix.lstat out).Unix.st_kind with
  | Unix.S_REG | (exception Unix.Unix_error _) -> (
    let tmp = Printf.sprintf "%s.%d.tmp" out (Unix.getpid ()) in
    match write tmp with
    | () -> Sys.rename tmp out
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      (try Sys.remove tmp with Sys_error _ -> ());
      Printexc.raise_with_backtrace e bt)
  | _ -> write out

let checker_of_name = function
  | "aerodrome" -> Ok (module Aerodrome.Opt : Aerodrome.Checker.S)
  | "aerodrome-basic" -> Ok (module Aerodrome.Basic : Aerodrome.Checker.S)
  | "aerodrome-reduced" -> Ok (module Aerodrome.Reduced : Aerodrome.Checker.S)
  | "velodrome" -> Ok (module Velodrome.Online : Aerodrome.Checker.S)
  | "velodrome-nogc" -> Ok Velodrome.Online.no_gc_checker
  | "velodrome-pk" -> Ok Velodrome.Online.pk_checker
  | other -> Error (`Msg (Printf.sprintf "unknown algorithm %S" other))

let algo_conv =
  Arg.conv
    ( (fun s -> checker_of_name s),
      fun ppf (module C : Aerodrome.Checker.S) ->
        Format.pp_print_string ppf C.name )

let trace_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"TRACE" ~doc:"Trace file in the rapid .std format.")

(* metainfo *)

let metainfo_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the statistics as a flat JSON object.")
  in
  let run json path =
    let tr = read_trace path in
    let m = Analysis.Metainfo.analyze tr in
    if json then
      print_endline (Obs.Json.to_string (Analysis.Metainfo.to_json m))
    else Format.printf "%a@." Analysis.Metainfo.pp m
  in
  Cmd.v
    (Cmd.info "metainfo" ~doc:"Print statistics of a trace file")
    Term.(const run $ json $ trace_arg)

(* check *)

let check_cmd =
  let algo =
    Arg.(
      value
      & opt algo_conv (module Aerodrome.Opt : Aerodrome.Checker.S)
      & info [ "a"; "algorithm" ] ~docv:"ALGO"
          ~doc:
            "Checker: aerodrome (default), aerodrome-basic, \
             aerodrome-reduced, velodrome, velodrome-nogc, velodrome-pk.")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "t"; "timeout" ] ~docv:"SECONDS" ~doc:"Wall-clock budget.")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Only set the exit code.")
  in
  let jobs =
    Arg.(
      value
      & opt int (Domain.recommended_domain_count ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "The domain budget (default: the number of available cores).  \
             One work-stealing scheduler of $(docv) domains owns both \
             parallelism axes — trace files fan out as tasks that spawn \
             their own chunk tasks on the same deques.  Reports are \
             printed in argument order regardless of completion order; \
             each file's report is byte-identical to $(b,--jobs) 1.")
  in
  let shards =
    (* 0 is auto; 1 turns sharding off; n > 1 forces an n-chunk plan *)
    let shards_conv =
      let parse = function
        | "auto" -> Ok 0
        | s -> (
          match int_of_string_opt s with
          | Some n when n >= 1 -> Ok n
          | _ ->
            Error
              (`Msg
                 (Printf.sprintf
                    "invalid shard count %S (expected \"auto\" or a \
                     positive integer)"
                    s)))
      in
      let print ppf = function
        | 0 -> Format.pp_print_string ppf "auto"
        | n -> Format.pp_print_int ppf n
      in
      Arg.conv (parse, print)
    in
    Arg.(
      value & opt shards_conv 0
      & info [ "s"; "shards" ] ~docv:"auto|N"
          ~doc:
            "How to split a trace into chunks at \
             boundary-summary cuts and check the chunks concurrently on \
             the $(b,--jobs) scheduler.  Cuts need not be quiescent: each \
             chunk checker is seeded with the cut's open-transaction \
             summary, and only the short window until the transactions \
             straddling the cut (and those open at their close) have \
             retired is repaired, so the report is byte-identical to the \
             sequential run.  $(b,auto) (the default) plans fine-grained \
             micro-chunks for a trace large enough to pay for it when \
             $(b,--jobs) exceeds 1, and checks them concurrently when the \
             plan's critical path beats a sequential feed; otherwise the \
             trace is fed sequentially and no worker domain starts.  \
             $(b,--stats) reports the choice as $(b,decision.exec).  An \
             integer N > 1 forces an N-chunk \
             plan, even at $(b,--jobs) 1; $(b,--shards) 1 disables \
             sharding.  Only the default $(b,aerodrome) checker shards; \
             other algorithms and timed-out runs stay sequential.")
  in
  let reclaim =
    Arg.(
      value
      & vflag true
          [
            ( true,
              info [ "reclaim" ]
                ~doc:
                  "Release each variable's clock state at its last access \
                   (the default): a last-use index — built while a text \
                   trace is scanned, or read from a binary trace's \
                   footer — makes peak memory proportional to live \
                   variables.  Streams \
                   with no index fall back to periodically collapsing \
                   inactive state.  Verdicts are identical either way." );
            ( false,
              info [ "no-reclaim" ]
                ~doc:
                  "Keep every variable's clock state for the whole run \
                   (the pre-reclamation behaviour)." );
          ])
  in
  let prefilter =
    Arg.(
      value
      & vflag Analysis.Runner.Off
          [
            ( Analysis.Runner.Auto,
              info [ "prefilter" ]
                ~doc:
                  "Drop events that provably cannot change the verdict \
                   before they reach the checker: accesses to thread-local \
                   and read-only variables, redundant in-transaction \
                   re-accesses, and operations on single-threaded locks.  \
                   Uses exact whole-trace statistics when they come for \
                   free (text traces, v3 binary footers) and runs \
                   unfiltered otherwise (v1/v2 binary files).  The \
                   verdict is identical; violation indices refer to the \
                   reduced stream." );
            ( Analysis.Runner.Off,
              info [ "no-prefilter" ]
                ~doc:"Feed the checker every event (the default)." );
          ])
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Collect telemetry and print per-file and process-wide metric \
             snapshots after the reports (printed even with $(b,--quiet)).")
  in
  let stats_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-json" ] ~docv:"FILE"
          ~doc:
            "Collect telemetry and write an $(b,aerodrome-stats/1) JSON \
             document to $(docv) ($(b,-) for stdout).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Record a Chrome trace-event timeline (ingestion and checking \
             spans) to $(docv); open it in Perfetto or chrome://tracing.")
  in
  let progress =
    Arg.(
      value
      & opt (some float) None
      & info [ "progress" ] ~docv:"M"
          ~doc:
            "Print a heartbeat line to stderr every $(docv) million events \
             (events/sec and, when the total is known, an ETA).")
  in
  let metrics_addr =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-addr" ] ~docv:"ADDR"
          ~doc:
            "Serve a live OpenMetrics/Prometheus exposition of the \
             process and per-run telemetry on $(docv) — $(b,HOST:PORT) \
             (port 0 picks a free one) or $(b,unix:PATH) — for the \
             duration of the run; scrape $(b,/metrics) with curl or \
             $(b,rapid scrape).  Sampling reads shared counters without \
             locking, so a scrape never stalls the checker.  Implies \
             telemetry collection.")
  in
  let flight_record =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-record" ] ~docv:"DIR"
          ~doc:
            "Keep a bounded per-thread ring of recent events while \
             checking; a run that ends in a violation writes a witness \
             bundle into $(docv): a JSON diagnosis \
             ($(i,trace).witness.json) and, whenever the rings still \
             cover a globally quiescent cut, a replayable binary slice \
             ($(i,trace).slice.bin) on which $(b,rapid check) reproduces \
             the violation.  The slice is re-checked before the run \
             returns and the outcome recorded in the bundle.")
  in
  let flight_window =
    Arg.(
      value
      & opt int Traces.Flight.default_window
      & info [ "flight-window" ] ~docv:"N"
          ~doc:
            "Per-thread flight-recorder ring capacity, in events \
             (default 256).  Larger windows reach further back for a \
             quiescent cut at proportional memory cost.")
  in
  (* the positionals are plain strings, not Arg.file: a missing file must
     produce a per-file error and leave the remaining files checked *)
  let traces =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"TRACE" ~doc:"Trace files in the rapid .std or binary format.")
  in
  let run checker timeout quiet jobs shards reclaim prefilter stats stats_json
      trace_out progress metrics_addr flight_record flight_window paths =
    let (module C : Aerodrome.Checker.S) = checker in
    let flight =
      Option.map
        (fun dir ->
          {
            Analysis.Runner.flight_dir = dir;
            flight_window = max 1 flight_window;
          })
        flight_record
    in
    let cores = Domain.recommended_domain_count () in
    if jobs > cores then
      Format.eprintf "rapid: warning: --jobs %d exceeds %d available core%s@."
        jobs cores
        (if cores = 1 then "" else "s");
    if stats || stats_json <> None || trace_out <> None || metrics_addr <> None
    then Obs.enable ();
    let exporter =
      match metrics_addr with
      | None -> None
      | Some addr -> (
        match Obs.Exporter.serve addr with
        | Ok srv ->
          Format.eprintf "rapid: serving metrics on %s@."
            (Obs.Exporter.bound srv);
          Some srv
        | Error msg ->
          Format.eprintf "rapid: %s@." msg;
          exit 2)
    in
    let collector =
      match trace_out with
      | Some _ -> Some (Obs.Chrome_trace.start ())
      | None -> None
    in
    let heartbeat =
      Option.map
        (fun m ->
          Obs.Heartbeat.create
            ~every:(max 1 (int_of_float (m *. 1e6)))
            ~label:"check" ())
        progress
    in
    (* The work-stealing scheduler, with --jobs domains.  Its workers
       spawn at the first task: at once for a multi-file batch (the file
       fan-out itself executes on the scheduler), and for a lone trace
       only when the runner's plan chooses stealing.  Auto sharding
       needs more than one domain; a forced --shards N lends the
       scheduler even at --jobs 1 so the forced plan really runs.  The
       sched.* probes (live scheduler telemetry for the OpenMetrics
       endpoint and the process snapshot, sampled at scrape time) exist
       only once the workers do. *)
    let sched =
      if jobs > 1 || shards > 1 then
        let probes sc =
          let stat name f =
            Obs.Registry.probe Obs.Registry.global name (fun () ->
                Obs.Snapshot.Int (f (Parallel.Deque.stats sc)))
          in
          stat "sched.domains" (fun s -> s.Parallel.Deque.domains);
          stat "sched.steals" (fun (s : Parallel.Deque.stats) -> s.steals);
          stat "sched.failed_steals" (fun (s : Parallel.Deque.stats) ->
              s.failed_steals);
          stat "sched.injected" (fun (s : Parallel.Deque.stats) -> s.injected);
          stat "sched.completed" (fun (s : Parallel.Deque.stats) -> s.completed)
        in
        Some (Parallel.Deque.create ~on_start:probes jobs)
      else None
    in
    let run_started = Unix.gettimeofday () in
    let reports =
      Analysis.Runner.run_many ?timeout ?heartbeat ~reclaim ~prefilter ~shards
        ?sched ?flight checker paths
    in
    Option.iter Obs.Exporter.stop exporter;
    let run_wall = Unix.gettimeofday () -. run_started in
    (* final scheduler reading, after the joined workers' counters are
       all published; a scheduler whose workers never spawned has
       nothing to shut down or report *)
    let sched_stats =
      match sched with
      | Some sc when Parallel.Deque.started sc ->
        Parallel.Deque.shutdown sc;
        Some (Parallel.Deque.stats sc)
      | _ -> None
    in
    let single = match paths with [ _ ] -> true | _ -> false in
    List.iter
      (fun fr ->
        match fr.Analysis.Runner.report with
        | Ok r ->
          if not quiet then
            if single then Format.printf "%a@." Analysis.Runner.pp r
            else Format.printf "%a@." Analysis.Runner.pp_file_report fr
        | Error msg -> Format.eprintf "%s@." msg)
      reports;
    (* deterministic rendering: entries sorted by metric name, so the
       output is stable across prefilter/shard/flight configurations *)
    let process_snapshot () =
      Obs.Snapshot.sorted (Obs.Registry.snapshot Obs.Registry.global)
    in
    if stats then begin
      List.iter
        (fun fr ->
          match fr.Analysis.Runner.report with
          | Ok r when r.Analysis.Runner.metrics <> [] ->
            Format.printf "%s metrics:@.%a" fr.Analysis.Runner.file
              Obs.Snapshot.pp
              (Obs.Snapshot.sorted r.Analysis.Runner.metrics)
          | _ -> ())
        reports;
      let g = process_snapshot () in
      if g <> [] then Format.printf "process metrics:@.%a" Obs.Snapshot.pp g;
      (match sched_stats with
      | Some st ->
        Array.iteri
          (fun i s ->
            Format.printf "  sched.worker%d.busy_seconds  %.3f@." i s)
          st.Parallel.Deque.busy_seconds;
        Array.iteri
          (fun i n -> Format.printf "  sched.worker%d.tasks  %d@." i n)
          st.Parallel.Deque.ran
      | None -> ())
    end;
    (match stats_json with
    | None -> ()
    | Some dest ->
      let file_json (fr : Analysis.Runner.file_report) =
        match fr.report with
        | Error msg ->
          Obs.Json.Obj
            [ ("file", Obs.Json.Str fr.file); ("error", Obs.Json.Str msg) ]
        | Ok r ->
          let verdict, extra =
            match r.outcome with
            | Analysis.Runner.Timed_out -> ("timeout", [])
            | Analysis.Runner.Verdict None -> ("serializable", [])
            | Analysis.Runner.Verdict (Some v) ->
              ( "violation",
                [
                  ( "violation_index",
                    Obs.Json.Num
                      (float_of_int (v.Aerodrome.Violation.index + 1)) );
                ] )
          in
          Obs.Json.Obj
            ([
               ("file", Obs.Json.Str fr.file);
               ("verdict", Obs.Json.Str verdict);
             ]
            @ extra
            @ [
                ("seconds", Obs.Json.Num r.seconds);
                ("events_fed", Obs.Json.Num (float_of_int r.events_fed));
                ("metrics", Obs.Snapshot.to_json (Obs.Snapshot.sorted r.metrics));
              ])
      in
      let process =
        let global = ("global", Obs.Snapshot.to_json (process_snapshot ())) in
        (* per-worker scheduler telemetry: the counters mirror the
           sched.* probes in [global]; utilization is each domain's
           busy fraction of the whole run's wall clock *)
        match sched_stats with
        | None -> [ global ]
        | Some st ->
          let num x = Obs.Json.Num (float_of_int x) in
          let nums f xs = Obs.Json.List (Array.to_list xs |> List.map f) in
          [
            global;
            ( "sched",
              Obs.Json.Obj
                [
                  ("domains", num st.Parallel.Deque.domains);
                  ("steals", num st.Parallel.Deque.steals);
                  ("failed_steals", num st.Parallel.Deque.failed_steals);
                  ("injected", num st.Parallel.Deque.injected);
                  ("completed", num st.Parallel.Deque.completed);
                  ( "busy_seconds",
                    nums (fun s -> Obs.Json.Num s) st.Parallel.Deque.busy_seconds
                  );
                  ( "utilization",
                    nums
                      (fun s ->
                        Obs.Json.Num (if run_wall > 0. then s /. run_wall else 0.))
                      st.Parallel.Deque.busy_seconds );
                  ("tasks", nums num st.Parallel.Deque.ran);
                ] );
          ]
      in
      let doc =
        Obs.Json.Obj
          [
            ("schema", Obs.Json.Str "aerodrome-stats/1");
            ("checker", Obs.Json.Str C.name);
            ("files", Obs.Json.List (List.map file_json reports));
            ("process", Obs.Json.Obj process);
          ]
      in
      let text = Obs.Json.to_string doc in
      if dest = "-" then print_endline text
      else begin
        let oc = open_out dest in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc text;
            output_char oc '\n')
      end);
    (match (trace_out, collector) with
    | Some path, Some c ->
      Obs.Chrome_trace.stop ();
      Obs.Chrome_trace.write_file path c
    | _ -> ());
    let has f =
      List.exists
        (fun fr ->
          match fr.Analysis.Runner.report with
          | Ok r -> f (Some r)
          | Error _ -> f None)
        reports
    in
    let errored = has (function None -> true | Some _ -> false) in
    let timed_out =
      has (function
        | Some { Analysis.Runner.outcome = Analysis.Runner.Timed_out; _ } ->
          true
        | _ -> false)
    in
    let violated =
      has (function
        | Some { Analysis.Runner.outcome = Analysis.Runner.Verdict (Some _); _ }
          ->
          true
        | _ -> false)
    in
    if errored then exit 2
    else if timed_out then exit 3
    else if violated then exit 1
    else exit 0
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Check trace files for conflict-serializability violations (exit \
          code: 0 all serializable, 1 violation, 2 unreadable/malformed \
          file, 3 timeout)")
    Term.(
      const run $ algo $ timeout $ quiet $ jobs $ shards $ reclaim $ prefilter
      $ stats $ stats_json $ trace_out $ progress $ metrics_addr
      $ flight_record $ flight_window $ traces)

(* scrape: one-shot GET against a running metrics exporter.  Exists so
   the cram tests (and machines without curl) can exercise the exporter
   hermetically; CI's smoke job uses curl against the same endpoint. *)

let scrape_cmd =
  let addr =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ADDR"
          ~doc:
            "Exporter address: $(b,HOST:PORT) or $(b,unix:PATH), as given \
             to $(b,rapid check --metrics-addr).")
  in
  let path =
    Arg.(
      value & opt string "/metrics"
      & info [ "path" ] ~docv:"PATH" ~doc:"Request path.")
  in
  let validate =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "Validate the fetched exposition against the OpenMetrics \
             subset the exporter emits; exit 1 when it does not \
             conform.")
  in
  let run addr path validate =
    match Obs.Exporter.fetch ~path addr with
    | Error msg ->
      Format.eprintf "rapid: scrape: %s@." msg;
      exit 2
    | Ok body -> (
      print_string body;
      if not validate then exit 0
      else
        match Obs.Exporter.validate body with
        | Ok () -> exit 0
        | Error msg ->
          Format.eprintf "rapid: scrape: invalid exposition: %s@." msg;
          exit 1)
  in
  Cmd.v
    (Cmd.info "scrape"
       ~doc:
         "Fetch (and optionally validate) a live metrics exposition from \
          a running $(b,rapid check --metrics-addr)")
    Term.(const run $ addr $ path $ validate)

(* generate *)

let generate_cmd =
  let profile =
    Arg.(
      value
      & opt (some string) None
      & info [ "p"; "profile" ] ~docv:"NAME"
          ~doc:"Benchmark profile (see $(b,rapid profiles)).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output file (default stdout).")
  in
  let scale =
    Arg.(
      value & opt float 1.0
      & info [ "scale" ] ~docv:"F" ~doc:"Event-count multiplier.")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N" ~doc:"Override the profile's seed.")
  in
  let events =
    Arg.(
      value & opt int 10_000
      & info [ "events" ] ~docv:"N" ~doc:"Custom workload: target events.")
  in
  let threads =
    Arg.(
      value & opt int 4
      & info [ "threads" ] ~docv:"N" ~doc:"Custom workload: threads.")
  in
  let shape =
    Arg.(
      value
      & opt (enum [ ("independent", Workloads.Generator.Independent);
                    ("anchored", Workloads.Generator.Anchored) ])
          Workloads.Generator.Independent
      & info [ "shape" ] ~docv:"SHAPE" ~doc:"Custom workload: shape.")
  in
  let violate =
    Arg.(
      value
      & opt (some float) None
      & info [ "violate-at" ] ~docv:"F"
          ~doc:"Custom workload: inject a violation at this trace fraction.")
  in
  let run profile out scale seed events threads shape violate =
    let config =
      match profile with
      | Some name -> (
        match Workloads.Benchmarks.find name with
        | Some p -> Workloads.Profile.scaled p scale
        | None ->
          Format.eprintf "unknown profile %S (try: rapid profiles)@." name;
          exit 2)
      | None ->
        let plan =
          match violate with
          | None -> Workloads.Generator.Atomic
          | Some f -> Workloads.Generator.Violate_at f
        in
        let threads =
          if shape = Workloads.Generator.Anchored then max threads 4
          else threads
        in
        {
          Workloads.Generator.default with
          events = int_of_float (float_of_int events *. scale);
          threads;
          shape;
          plan;
          vars = max Workloads.Generator.default.vars (events / 3);
        }
    in
    let config =
      match seed with
      | Some s -> { config with Workloads.Generator.seed = Int64.of_int s }
      | None -> config
    in
    let tr = Workloads.Generator.generate config in
    match out with
    | Some path ->
      write_output path (fun f -> Traces.Parser.to_file f tr);
      Format.printf "wrote %d events to %s@." (Traces.Trace.length tr) path
    | None -> print_string (Traces.Parser.to_string tr)
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic trace")
    Term.(
      const run $ profile $ out $ scale $ seed $ events $ threads $ shape
      $ violate)

(* convert: text <-> binary *)

let convert_cmd =
  let out =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"OUT" ~doc:"Output file.")
  in
  let to_text =
    Arg.(
      value & flag
      & info [ "text" ] ~doc:"Write the textual format (default: binary).")
  in
  let run to_text path out =
    let tr = read_trace path in
    write_output out (fun f ->
        if to_text then Traces.Parser.to_file f tr
        else Traces.Binfmt.write_file f tr);
    (* Sizes only of regular files: a pipe or a terminal has none.  The
       summary goes to stderr when OUT is stdout itself, so it cannot
       land inside the converted trace. *)
    let size f =
      match Unix.stat f with
      | { Unix.st_kind = Unix.S_REG; st_size; _ } -> Some st_size
      | _ | (exception Unix.Unix_error _) -> None
    in
    let is_stdout =
      match (Unix.stat out, Unix.fstat Unix.stdout) with
      | o, s -> o.Unix.st_dev = s.Unix.st_dev && o.Unix.st_ino = s.Unix.st_ino
      | exception Unix.Unix_error _ -> false
    in
    let ppf = if is_stdout then Format.err_formatter else Format.std_formatter in
    Format.fprintf ppf "%s: %d events" out (Traces.Trace.length tr);
    (match (size path, size out) with
    | Some a, Some b -> Format.fprintf ppf ", %d -> %d bytes" a b
    | _ -> ());
    Format.fprintf ppf "@."
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:"Convert a trace between the textual and binary formats")
    Term.(const run $ to_text $ trace_arg $ out)

(* filter: write the prefiltered trace *)

let filter_cmd =
  let out =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"OUT" ~doc:"Output file.")
  in
  let to_text =
    Arg.(
      value & flag
      & info [ "text" ] ~doc:"Write the textual format (default: binary).")
  in
  let window =
    let parse s =
      match String.index_opt s ':' with
      | Some i -> (
        match
          ( int_of_string_opt (String.sub s 0 i),
            int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
          )
        with
        | Some start, Some len when start >= 0 && len >= 0 -> Ok (start, len)
        | _ -> Error (`Msg (Printf.sprintf "invalid window %S" s)))
      | None -> Error (`Msg (Printf.sprintf "invalid window %S (want START:LEN)" s))
    in
    let print ppf (start, len) = Format.fprintf ppf "%d:%d" start len in
    Arg.(
      value
      & opt (some (conv (parse, print))) None
      & info [ "window" ] ~docv:"START:LEN"
          ~doc:
            "First restrict the trace to the $(docv) event window \
             (transaction markers repaired as in the checker), then \
             filter the window.")
  in
  let run to_text window path out =
    let tr = read_trace path in
    let tr =
      match window with
      | None -> tr
      | Some (start, len) -> Traces.Transform.limit_window start len tr
    in
    let reduced, c = Traces.Prefilter.run_trace `Exact tr in
    write_output out (fun f ->
        if to_text then Traces.Parser.to_file f reduced
        else Traces.Binfmt.write_file f reduced);
    Format.printf
      "%s: %d -> %d events (-%d: %d thread-local, %d read-only, %d \
       redundant, %d lock-local)@."
      out c.Traces.Prefilter.events_in c.Traces.Prefilter.kept
      (Traces.Prefilter.elided c)
      c.Traces.Prefilter.thread_local c.Traces.Prefilter.read_only
      c.Traces.Prefilter.redundant c.Traces.Prefilter.lock_local
  in
  Cmd.v
    (Cmd.info "filter"
       ~doc:
         "Write a reduced trace with the same conflict-serializability \
          verdict: thread-local, read-only, redundant and lock-local \
          events elided")
    Term.(const run $ to_text $ window $ trace_arg $ out)

(* explain: everything we know about a trace's first violation *)

let explain_cmd =
  let run path =
    let tr = read_trace path in
    match Aerodrome.Checker.run (module Aerodrome.Opt) tr with
    | None -> Format.printf "conflict serializable: nothing to explain@."
    | Some v ->
      Format.printf "%a@.@." Aerodrome.Violation.pp v;
      (* the baseline's witness cycle *)
      (match Aerodrome.Checker.run (module Velodrome.Online) tr with
      | Some { site = Aerodrome.Violation.Graph_cycle cycle; index; _ } ->
        Format.printf "velodrome witness (at event %d): transactions %a@."
          (index + 1)
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " -> ")
             Format.pp_print_int)
          cycle
      | _ -> ());
      (* the Proposition 1 event-level witness, on a window around the
         violation to keep the quadratic analysis tractable *)
      let window_start = max 0 (v.Aerodrome.Violation.index - 2_000) in
      let window =
        Traces.Transform.limit_window window_start
          (v.Aerodrome.Violation.index - window_start + 1)
          tr
      in
      if Traces.Trace.length window <= 5_000 then begin
        let chb = Aerodrome.Chb.compute window in
        match Aerodrome.Chb.first_path_witness chb window with
        | Some (i, j) ->
          Format.printf
            "prop-1 witness (indices in the %d-event window): e%d ->* e%d and e%d <=CHB e%d@."
            (Traces.Trace.length window) (i + 1) (j + 1) (j + 1) (i + 1);
          Format.printf "  e%d = %a@.  e%d = %a@." (i + 1) Traces.Event.pp
            (Traces.Trace.get window i) (j + 1) Traces.Event.pp
            (Traces.Trace.get window j)
        | None -> ()
      end
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Check a trace and explain the first violation (witness cycle and           Proposition 1 event pair)")
    Term.(const run $ trace_arg)

(* clocks: the Figure 5/6/7-style clock-evolution table *)

let clocks_cmd =
  let limit =
    Arg.(
      value & opt int 64
      & info [ "n"; "limit" ] ~docv:"N" ~doc:"Print at most N events.")
  in
  let run limit path =
    let tr = read_trace path in
    let threads = Traces.Trace.threads tr in
    if threads > 8 then begin
      Format.eprintf "clocks: refusing to print %d-wide vector clocks@."
        threads;
      exit 2
    end;
    let st =
      Aerodrome.Basic.create ~threads ~locks:(Traces.Trace.locks tr)
        ~vars:(Traces.Trace.vars tr)
    in
    let symbols = Traces.Trace.symbols tr in
    let name_of e =
      match symbols with
      | Some s -> Traces.Trace.Symbols.thread s (Traces.Event.thread e)
      | None -> Traces.Ids.Tid.to_string (Traces.Event.thread e)
    in
    Format.printf "%5s  %-24s" "event" "operation";
    for t = 0 to threads - 1 do
      Format.printf "  %14s" (Printf.sprintf "C_%d" t)
    done;
    Format.printf "@.";
    (try
       Traces.Trace.iteri
         (fun i e ->
           if i >= limit then raise Exit;
           let r = Aerodrome.Basic.feed_packed st (Traces.Packed.of_event e) in
           Format.printf "%5d  %-24s" (i + 1)
             (Format.asprintf "%s:%a" (name_of e) Traces.Event.pp_op
                (Traces.Event.op e));
           for t = 0 to threads - 1 do
             Format.printf "  %14s"
               (Vclock.Vtime.to_string (Aerodrome.Basic.thread_clock st t))
           done;
           Format.printf "@.";
           match r with
           | Some v ->
             Format.printf "%a@." Aerodrome.Violation.pp v;
             raise Exit
           | None -> ())
         tr
     with Exit -> ())
  in
  Cmd.v
    (Cmd.info "clocks"
       ~doc:
         "Replay a trace through Algorithm 1 printing the vector-clock \
          evolution (in the style of the paper's Figures 5-7)")
    Term.(const run $ limit $ trace_arg)

(* profiles *)

let profiles_cmd =
  let run () =
    List.iter
      (fun (p : Workloads.Profile.t) ->
        Format.printf "%a@." Workloads.Profile.pp p)
      Workloads.Benchmarks.all
  in
  Cmd.v
    (Cmd.info "profiles" ~doc:"List benchmark profiles")
    Term.(const run $ const ())

(* table *)

let table_cmd =
  let id =
    Arg.(
      required
      & opt (some int) None
      & info [ "id" ] ~docv:"N" ~doc:"Table number: 1 or 2.")
  in
  let scale =
    Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"F" ~doc:"Scale.")
  in
  let timeout =
    Arg.(
      value & opt float 5.0
      & info [ "timeout" ] ~docv:"S" ~doc:"Per-run budget.")
  in
  let run id scale timeout =
    let profiles =
      if id = 1 then Workloads.Benchmarks.table1
      else if id = 2 then Workloads.Benchmarks.table2
      else begin
        Format.eprintf "table id must be 1 or 2@.";
        exit 2
      end
    in
    let rows =
      List.map
        (fun (p : Workloads.Profile.t) ->
          let tr = Workloads.Profile.generate ~scale p in
          let meta = Analysis.Metainfo.analyze tr in
          let v =
            Analysis.Runner.run ~timeout (module Velodrome.Online) tr
          in
          let a = Analysis.Runner.run ~timeout (module Aerodrome.Opt) tr in
          Analysis.Report.make_row ~name:p.name ~meta ~velodrome:v
            ~aerodrome:a ~timeout ~paper:p.paper ())
        profiles
    in
    Analysis.Report.render_comparison Format.std_formatter
      ~title:(Printf.sprintf "Table %d (scaled reproduction)" id)
      rows
  in
  Cmd.v
    (Cmd.info "table" ~doc:"Regenerate a paper table")
    Term.(const run $ id $ scale $ timeout)

let () =
  let doc = "dynamic atomicity checking (AeroDrome / Velodrome)" in
  let info = Cmd.info "rapid" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ metainfo_cmd; check_cmd; scrape_cmd; generate_cmd; convert_cmd; filter_cmd; explain_cmd; clocks_cmd; profiles_cmd; table_cmd ]))
