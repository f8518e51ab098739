open Traces

type outcome = Verdict of Aerodrome.Violation.t option | Timed_out

type result = {
  checker : string;
  outcome : outcome;
  seconds : float;
  events_fed : int;
  metrics : Obs.Snapshot.t;
}

type prefilter = Off | Exact | Auto

type flight = {
  flight_dir : string;
  flight_window : int;
}

let check_interval = 4096

(* --- telemetry plumbing ---

   Each run executes under an ambient {!Obs.Scope} when telemetry is
   enabled: the checker constructor attaches its {!Aerodrome.Cmetrics}
   registry to the scope, and the harvested snapshot lands in
   [result.metrics] without the checker signature changing.  The inner
   run functions put any runner-level entries (ingest sizes,
   time-to-first-violation) in [metrics] themselves; the
   scope snapshot is prepended.  With telemetry off the scope machinery
   is skipped entirely and [metrics] is whatever the inner function
   produced (normally {!Obs.Snapshot.empty}). *)

(* [?file] labels the scope for live exposure: while a metrics exporter
   is serving, every registry attached during this run is published with
   a [file="<path>"] label, so concurrent multi-file runs scrape as
   distinct series. *)
let collected ?file f =
  if Obs.on () then
    let labels = match file with Some p -> [ ("file", p) ] | None -> [] in
    let r, snap = Obs.Scope.collect ~labels f in
    { r with metrics = snap @ r.metrics }
  else f ()

let arm_heartbeat heartbeat ~total =
  match heartbeat with
  | None -> ()
  | Some hb ->
    Obs.Heartbeat.restart hb;
    Option.iter (Obs.Heartbeat.set_total hb) total

let tick heartbeat n =
  match heartbeat with None -> () | Some hb -> Obs.Heartbeat.tick hb n

(* First time the checker reports a violation, stamp the elapsed seconds
   and drop an instant marker on the trace timeline.  The checkers
   freeze at their first violation (feed keeps returning it), so the
   negative sentinel makes this fire once. *)
let note_violation viol_at ~started =
  if !viol_at < 0.0 then begin
    viol_at := Unix.gettimeofday () -. started;
    Obs.Chrome_trace.instant ~cat:"checker" "violation"
  end

let runner_entries ?file_bytes viol_at =
  let entries =
    if !viol_at >= 0.0 then
      [ Obs.Snapshot.entry "violation.seconds" (Obs.Snapshot.Float !viol_at) ]
    else []
  in
  match file_bytes with
  | Some b when Obs.on () ->
    Obs.Snapshot.entry "ingest.file_bytes" (Obs.Snapshot.Int b) :: entries
  | _ -> entries

let file_size path =
  match Unix.stat path with
  | { Unix.st_size; _ } -> Some st_size
  | exception Unix.Unix_error _ -> None

(* --- violation flight recording ---

   With [?flight] a bounded per-thread ring of packed words rides along
   the checker ({!Traces.Flight}): every event is noted (one arithmetic
   pack plus a ring store) until the first violation freezes the
   recorder, and a violating run then emits a witness bundle — JSON
   diagnosis plus a replayable binfmt slice — via {!Witness.emit}.
   The noted index is the fed-stream position — the same coordinate
   space as [Violation.index], filtered or not. *)

let flight_recorder flight ~threads =
  Option.map (fun f -> Flight.create ~window:f.flight_window ~threads ()) flight

let flight_entries (info : Witness.info) =
  if not (Obs.on ()) then []
  else
    Obs.Snapshot.
      [
        entry "flight.slice_events" (Int info.Witness.slice_events);
        entry "flight.replayable" (Int (if info.Witness.replayable then 1 else 0));
        entry "flight.validated" (Int (if info.Witness.validated then 1 else 0));
      ]

(* Emit the bundle for a finished run.  A bundle that cannot be written
   (unwritable directory, full disk) degrades to a warning: the check
   verdict is the product, the witness is diagnostics. *)
let flight_finish flight fl checker ~source ~threads ~locks ~vars outcome =
  match (flight, fl, outcome) with
  | Some fopt, Some f, Verdict (Some v) -> (
    match
      Witness.emit ~dir:fopt.flight_dir ~source ~checker ~threads ~locks ~vars
        ~flight:f ~violation:v ()
    with
    | Ok info -> flight_entries info
    | Error msg ->
      Printf.eprintf "rapid: flight-record: %s\n%!" msg;
      [])
  | _ -> []

(* Sharded runs record per chunk, and a surviving chunk's recorder
   follows its checker through the repairs it owns.  The bundle comes
   from the first recorder (in trace order) that noted the reconciled
   violation: that is the recorder of the checker which found it — a
   repairing owner, exact from before the seam, rather than the chunk
   that merely contains the index — rebased by its arena position. *)
let flight_finish_sharded flight checker ~source ~threads ~locks ~vars
    (o : Parallel.Shard.outcome) =
  match (flight, o.Parallel.Shard.violation) with
  | Some fopt, Some v -> (
    let idx = v.Aerodrome.Violation.index in
    let owner =
      Array.to_list o.Parallel.Shard.tasks
      |> List.find_opt (fun (t : Parallel.Shard.task) ->
             match t.Parallel.Shard.flight with
             | Some f ->
               t.Parallel.Shard.base <= idx
               && idx < t.Parallel.Shard.base + Flight.noted f
             | None -> false)
    in
    match owner with
    | Some ({ Parallel.Shard.flight = Some f; _ } as t) -> (
      match
        Witness.emit ~dir:fopt.flight_dir ~source ~checker ~threads ~locks
          ~vars ~flight:f ~base:t.Parallel.Shard.base ~violation:v ()
      with
      | Ok info -> flight_entries info
      | Error msg ->
        Printf.eprintf "rapid: flight-record: %s\n%!" msg;
        [])
    | _ -> [])
  | _ -> []

(* --- state reclamation ---

   [reclaim] selects the checkers' state-lifetime policy (installed
   ambiently around checker creation, see {!Aerodrome.Reclaim}): with a
   last-use oracle — computed from the materialized trace, read from a
   v2 binary footer, or built from a text file's scanned arena —
   variables are released exactly at their final access; without one,
   streaming runs fall back to the inactivity heuristic. *)

let policy ~reclaim oracle =
  if not reclaim then Aerodrome.Reclaim.Off
  else
    match oracle with
    | Some lt -> Aerodrome.Reclaim.Oracle lt
    | None ->
      Aerodrome.Reclaim.Inactivity
        { horizon = Aerodrome.Reclaim.default_horizon }

(* --- trace prefiltering ---

   [prefilter] inserts a {!Traces.Prefilter} between ingestion and the
   checker, dropping events that provably cannot change the verdict.
   [Exact] wants whole-trace accessor statistics ({!Traces.Varstats}) —
   from a materialized trace, a v3 binary footer, a text file's
   scanned arena, or a dedicated pre-scan — and [Auto] applies the
   exact mode when the statistics come for free and otherwise runs
   unfiltered.

   Composition with [reclaim] is sound as-is: the oracle releases a
   variable when the checker's event index equals the recorded last-use
   index, and dropped events only ever make filtered indices {e smaller}
   than the original ones, so a mid-lifetime access can never collide
   with the original last-use index (equality forces the access to be
   the final one).  Releases may fire late or not at all on a filtered
   stream, never early; [run] sidesteps even that by computing the
   oracle on the already-filtered trace. *)

let prefilter_mode ~prefilter ~stats =
  match (prefilter, stats) with
  | (Exact | Auto), Some vs -> Some (Prefilter.Exact vs)
  | _ -> None

(* High-water mark of the major heap, sampled at the same 4096-event
   checkpoints as the timeout — the per-run memory axis the bench
   harness compares across reclamation settings.  Registers its own
   scope-attached registry so the gauge lands in [result.metrics]
   alongside the checker's counters. *)
let heap_sampler () =
  if Obs.on () then begin
    let reg = Obs.Registry.create () in
    Obs.Scope.attach reg;
    let g = Obs.Registry.gauge reg "heap.peak_words" in
    let sample () =
      Obs.Gauge.set_max g (float_of_int (Gc.quick_stat ()).Gc.heap_words)
    in
    sample ();
    sample
  end
  else fun () -> ()

(* --- sharded checking ---

   With a work-stealing scheduler lent ([?sched]) and [shards] other
   than [1], the (filtered) packed event stream is materialized into an
   arena and planned: cut into chunks at boundary-summary cuts, with
   each cut's repair window and owner precomputed
   ({!Parallel.Shard.plan}, {!Aerodrome.Merge}).  [shards = 0] lets the
   shard layer micro-chunk (oversubscribed, scheduler-sized) and then
   weighs the plan: only when its critical path is clearly shorter than
   the arena do the chunks run as scheduler tasks, each owner repairing
   its seam windows ({!Parallel.Shard.execute}); otherwise the arena is
   fed sequentially, with the last-use oracle, and no worker domain is
   ever spawned.  An explicit count forces that exact plan onto the
   scheduler.  Reports are byte-identical to the sequential path: a
   chunk checker seeded from its cut's boundary summary is contained in
   the sequential checker and exact past the cut's repair window, and
   repair re-runs only the window events against the true frontier
   (DESIGN.md §17, §18).  The seed argument is specific to the default
   Opt configuration, so other checkers run sequentially, as do
   timed-out runs (a per-chunk deadline would make [events_fed] racy).
   Without a scheduler every run is sequential.

   Chunk checkers run with reclamation off: per-variable lifetimes are
   chunk-local here, and reclamation is verdict-neutral either way. *)

(* Below roughly two chunks' worth of this, the planner scan and the
   per-chunk checker setup cost more than the parallelism returns, so
   auto sharding leaves the run on the sequential path. *)
let min_shard_events = 65536

let steal_worthwhile ~shards ~events =
  shards > 1 || events >= 2 * min_shard_events

(* An auto plan runs on the scheduler only when its critical path is at
   most this fraction of the arena.  Stealing pays a plan, boundary
   seeding, repairs and a run without the last-use oracle; on the
   suite's shared-par input (critical path 0.50 of the arena on two
   domains) it ran 1.37x faster than one sequential feed on a 2-core
   host, so the two break even near 0.69.  Measured plans sit far from
   the cut: 0.50 where cuts are cheap, 1.00 where anchor transactions
   straddle every cut (DESIGN.md §18). *)
let max_critical_fraction = 0.7

let stealing_pays ~critical_path ~events =
  float_of_int critical_path <= max_critical_fraction *. float_of_int events

(* The scheduler a run may shard on, or why it stays sequential. *)
let sharding ?sched ~shards ~timeout ~events (module C : Aerodrome.Checker.S) =
  match sched with
  | None -> Error "no-scheduler"
  | Some _ when shards = 1 -> Error "shards-1"
  | Some _ when timeout <> None -> Error "timeout"
  | Some _ when C.name <> Aerodrome.Opt.name -> Error "checker"
  | Some _ when not (steal_worthwhile ~shards ~events) -> Error "small-trace"
  | Some sched -> Ok sched

(* Which path the run took and why, as [decision.*] entries: a
   scope-attached registry, so they also reach a live exposition.  A
   planned run adds the plan's critical path and the arena length it
   was weighed against. *)
let note_decision ?plan ~stealing reason =
  if Obs.on () then begin
    let reg = Obs.Registry.create () in
    let probe name v = Obs.Registry.probe reg name (fun () -> v) in
    probe "decision.exec"
      (Obs.Snapshot.Label (if stealing then "stealing" else "sequential"));
    probe "decision.exec_reason" (Obs.Snapshot.Label reason);
    Option.iter
      (fun (critical_path, events) ->
        probe "decision.critical_path_events" (Obs.Snapshot.Int critical_path);
        probe "decision.events" (Obs.Snapshot.Int events))
      plan;
    Obs.Scope.attach reg
  end

let shard_entries ~events (o : Parallel.Shard.outcome) =
  if not (Obs.on ()) then []
  else
    let p = o.Parallel.Shard.plan in
    let repair_fraction =
      if events <= 0 then 0.0
      else float_of_int o.Parallel.Shard.repaired_events /. float_of_int events
    in
    Obs.Snapshot.
      [
        entry "shard.chunks" (Int (Array.length o.Parallel.Shard.tasks));
        entry "shard.skipped_chunks" (Int o.Parallel.Shard.skipped_chunks);
        entry "shard.quiescent_cuts" (Int p.Aerodrome.Merge.quiescent);
        entry "shard.seamed_cuts" (Int p.Aerodrome.Merge.seamed);
        entry "shard.tainted_events" (Int p.Aerodrome.Merge.tainted_events);
        entry "shard.repaired_events" (Int o.Parallel.Shard.repaired_events);
        entry "shard.repair_fraction" (Float repair_fraction);
        entry "shard.plan_seconds" (Float o.Parallel.Shard.plan_seconds);
        entry "shard.merge_seconds" (Float o.Parallel.Shard.merge_seconds);
      ]
    @ List.concat
        (List.mapi
           (fun i (t : Parallel.Shard.task) ->
             Obs.Snapshot.
               [
                 entry
                   (Printf.sprintf "shard.chunk%d.events" i)
                   (Int (t.Parallel.Shard.stop - t.Parallel.Shard.base));
                 entry
                   (Printf.sprintf "shard.chunk%d.seconds" i)
                   (Float t.Parallel.Shard.seconds);
               ])
           (Array.to_list o.Parallel.Shard.tasks))

(* Wrap a shard outcome as a runner result; the timer is the caller's
   (it covers ingestion into the arena, like the sequential paths'
   decode). *)
let finish_sharded (module C : Aerodrome.Checker.S) ~started ?file_bytes
    ?flight ~source ~threads ~locks ~vars (o : Parallel.Shard.outcome)
    ~events_fed =
  let seconds = Unix.gettimeofday () -. started in
  let viol_at =
    ref (if o.Parallel.Shard.violation <> None then seconds else -1.0)
  in
  let flight_metrics =
    flight_finish_sharded flight
      (module C : Aerodrome.Checker.S)
      ~source ~threads ~locks ~vars o
  in
  {
    checker = C.name;
    outcome = Verdict o.Parallel.Shard.violation;
    seconds;
    events_fed;
    metrics =
      o.Parallel.Shard.metrics @ runner_entries ?file_bytes viol_at
      @ shard_entries ~events:events_fed o
      @ flight_metrics;
  }

(* --- packed sources ---

   Every run feeds packed words to the checker's [feed_packed] entry —
   no per-event heap allocation between the input and the vector-clock
   work.  A binary file is memory-mapped and decoded in place
   ({!Traces.Binfmt.fold_packed}); a text file is scanned once into an
   arena ({!Traces.Parser.read_packed}); a materialized trace is packed
   into one.  The exact-mode prefilter runs on the packed words too, so
   elided events are never materialized.  [feed_packed] is a checker's
   only event entry; the tests compare against the seed reference
   checkers, which unpack each word. *)

type words =
  | Mapped of string  (** a binary file, decoded in place *)
  | Arena of Packed.Arena.t  (** a scanned text file or a packed trace *)

type source = {
  file : string option;  (** [None] for a materialized trace *)
  threads : int;
  locks : int;
  vars : int;
  events : int;
  last_use : Lifetime.t option Lazy.t;
      (** forced only by a sequential feed; chunk checkers run without *)
  stats : Varstats.t option;
  words : words;
}

(* The name witness bundles and the live-exposure label use. *)
let source_name src = Option.value src.file ~default:"trace"

(* [f] is handed to the binary decoder as is: the mmap loop pays no
   indirection for the choice of source. *)
let fold_words words f =
  match words with
  | Mapped path -> ignore (Traces.Binfmt.fold_packed path ~init:() ~f)
  | Arena a -> Packed.Arena.iter a (f ())

(* The sequential feed loop, inside the caller's scope.  [started]
   defaults to now; a text run passes the time before its scan, and a
   sharded run that chose this loop the time before its arena, so
   [seconds] covers ingestion. *)
let feed_source ?timeout ?heartbeat ~reclaim ~prefilter ?flight ?started
    (module C : Aerodrome.Checker.S) src =
  let st =
    Aerodrome.Reclaim.with_policy
      (policy ~reclaim (Lazy.force src.last_use))
      (fun () -> C.create ~threads:src.threads ~locks:src.locks ~vars:src.vars)
  in
  let pf =
    Option.map Prefilter.create (prefilter_mode ~prefilter ~stats:src.stats)
  in
  let sample_heap = heap_sampler () in
  let fl = flight_recorder flight ~threads:src.threads in
  arm_heartbeat heartbeat ~total:(Some src.events);
  let started =
    match started with Some t -> t | None -> Unix.gettimeofday ()
  in
  let deadline = Option.map (fun b -> started +. b) timeout in
  let timed_out = ref false in
  let viol_at = ref (-1.0) in
  let fed = ref 0 in
  let feed_one w =
    (match fl with
    | Some f when !viol_at < 0.0 -> Flight.note f !fed w
    | _ -> ());
    (match C.feed_packed st w with
    | Some _ -> note_violation viol_at ~started
    | None -> ());
    incr fed;
    if !fed land (check_interval - 1) = 0 then begin
      tick heartbeat !fed;
      sample_heap ();
      match deadline with
      | Some d when Unix.gettimeofday () > d ->
        timed_out := true;
        raise Exit
      | _ -> ()
    end
  in
  (try
     fold_words src.words
       (match pf with
       | None -> fun () w -> feed_one w
       | Some p -> fun () w -> Prefilter.feed_packed p w feed_one)
   with Exit -> ());
  (match pf with
  | None -> ()
  | Some p -> Prefilter.finish_packed p ignore);
  sample_heap ();
  let outcome =
    if !timed_out then Timed_out else Verdict (C.violation st)
  in
  {
    checker = C.name;
    outcome;
    seconds = Unix.gettimeofday () -. started;
    events_fed = !fed;
    metrics =
      runner_entries ?file_bytes:(Option.bind src.file file_size) viol_at
      @ flight_finish flight fl
          (module C : Aerodrome.Checker.S)
          ~source:(source_name src) ~threads:src.threads ~locks:src.locks
          ~vars:src.vars outcome;
  }

let run_packed ?timeout ?heartbeat ~reclaim ~prefilter ?flight ?started ~reason
    checker src =
  collected ?file:src.file (fun () ->
      note_decision ~stealing:false reason;
      feed_source ?timeout ?heartbeat ~reclaim ~prefilter ?flight ?started
        checker src)

(* Sharded counterpart of [run_packed]: filter into an arena first (an
   arena is used as is when nothing is filtered) and plan it; then fan
   chunk checkers out over it, or, when an auto plan would not beat one
   feed, run the sequential loop over the arena.  The timer covers the
   ingestion, mirroring the sequential path's decode. *)
let run_packed_sharded ?heartbeat ~reclaim ~prefilter ~shards ~sched ?flight
    ?started (module C : Aerodrome.Checker.S) src =
  collected ?file:src.file (fun () ->
      let pf =
        Option.map Prefilter.create (prefilter_mode ~prefilter ~stats:src.stats)
      in
      arm_heartbeat heartbeat ~total:(Some src.events);
      let started =
        match started with Some t -> t | None -> Unix.gettimeofday ()
      in
      let arena =
        match (src.words, pf) with
        | Arena a, None -> a
        | words, _ ->
          let arena = Packed.Arena.create () in
          let push w = Packed.Arena.push arena w in
          (match pf with
          | None -> fold_words words (fun () w -> push w)
          | Some p ->
            fold_words words (fun () w -> Prefilter.feed_packed p w push);
            Prefilter.finish_packed p ignore);
          arena
      in
      let events = Packed.Arena.length arena in
      let domains = Parallel.Deque.size sched in
      let plan =
        Parallel.Shard.plan ~domains ~shards ~threads:src.threads arena
      in
      let critical_path = Parallel.Shard.critical_path ~domains plan in
      let stealing = shards <> 0 || stealing_pays ~critical_path ~events in
      note_decision ~plan:(critical_path, events) ~stealing
        (if shards = 0 then "critical-path" else "forced");
      if not stealing then
        feed_source ?heartbeat ~reclaim ~prefilter:Off ?flight ~started
          (module C)
          { src with events; words = Arena arena }
      else begin
        let o =
          Parallel.Shard.execute ~sched
            ?flight:(Option.map (fun f -> f.flight_window) flight)
            ~threads:src.threads ~locks:src.locks ~vars:src.vars arena plan
        in
        tick heartbeat events;
        finish_sharded (module C) ~started
          ?file_bytes:(Option.bind src.file file_size)
          ?flight ~source:(source_name src) ~threads:src.threads
          ~locks:src.locks ~vars:src.vars o ~events_fed:events
      end)

(* Run [src] on the scheduler {!sharding} lent, or sequentially. *)
let run_source ?timeout ?heartbeat ~reclaim ~prefilter ~shards ?flight
    ?started checker sharding src =
  match sharding with
  | Ok sched ->
    run_packed_sharded ?heartbeat ~reclaim ~prefilter ~shards ~sched ?flight
      ?started checker src
  | Error reason ->
    run_packed ?timeout ?heartbeat ~reclaim ~prefilter ?flight ?started ~reason
      checker src

(* A materialized trace is filtered, and its oracle computed, before the
   timer starts, like trace I/O; the oracle is computed on the filtered
   trace so its indices match what the checker sees.  The result is
   packed into an arena and runs like a scanned text file. *)
let run ?timeout ?heartbeat ?(reclaim = true) ?(prefilter = Off) ?(shards = 1)
    ?sched ?flight checker tr =
  let sharding =
    sharding ?sched ~shards ~timeout ~events:(Trace.length tr) checker
  in
  collected (fun () ->
      let tr =
        if prefilter = Off then tr else fst (Prefilter.run_trace `Exact tr)
      in
      let threads = Trace.threads tr
      and locks = Trace.locks tr
      and vars = Trace.vars tr in
      if not (Packed.fits ~threads ~locks ~vars) then
        invalid_arg "Runner.run: id domains exceed the packed limit";
      let arena = Packed.Arena.create () in
      Trace.iter (fun e -> Packed.Arena.push arena (Packed.of_event e)) tr;
      let last_use =
        if reclaim then lazy (Some (Lifetime.of_trace tr)) else lazy None
      in
      run_source ?timeout ?heartbeat ~reclaim ~prefilter:Off ~shards ?flight
        checker sharding
        {
          file = None;
          threads;
          locks;
          vars;
          events = Trace.length tr;
          last_use;
          stats = None;
          words = Arena arena;
        })

(* Accessor statistics for a binary file: the v3 footer is one seek away
   ([footer], decoded once with the last-use index); an explicit [Exact]
   request on a v1/v2 file (no statistics footer) is honored with a
   packed pre-scan — a full decode pass, so [Auto] runs unfiltered there
   instead. *)
let binary_stats ~prefilter (h : Binfmt.header) path footer =
  match prefilter with
  | Off -> None
  | Exact | Auto -> (
    match snd (Lazy.force footer) with
    | Some _ as s -> s
    | None when prefilter = Exact ->
      let vs = Varstats.create ~vars:h.Binfmt.vars ~locks:h.Binfmt.locks in
      ignore
        (Binfmt.fold_packed path ~init:() ~f:(fun () w ->
             Varstats.note_packed vs w));
      Some vs
    | None -> None)

(* A binary file streams from its mapping, domains from the header.  Ids
   beyond the packed word's slices are refused up front. *)
let run_binary ?timeout ?heartbeat ~reclaim ~prefilter ~shards ?sched ?flight
    checker path =
  let h = Binfmt.read_header path in
  let threads = h.Binfmt.threads and locks = h.Binfmt.locks
  and vars = h.Binfmt.vars in
  if not (Packed.fits ~threads ~locks ~vars) then
    raise
      (Binfmt.Corrupt
         (Printf.sprintf
            "%s: id domains (%d threads, %d locks, %d vars) exceed the \
             packed limit (%d threads, %d locks or vars)"
            path threads locks vars (Packed.max_tid + 1)
            (Packed.max_target + 1)));
  (* v2 files carry the oracle in their footer, one seek away; chunk
     checkers run without it.  The footer is decoded at most once, with
     only the sections this run uses. *)
  let footer =
    lazy (Binfmt.read_footer ~last_use:reclaim ~stats:(prefilter <> Off) path)
  in
  let last_use =
    if reclaim then lazy (fst (Lazy.force footer)) else lazy None
  in
  run_source ?timeout ?heartbeat ~reclaim ~prefilter ~shards ?flight checker
    (sharding ?sched ~shards ~timeout ~events:h.Binfmt.events checker)
    {
      file = Some path;
      threads;
      locks;
      vars;
      events = h.Binfmt.events;
      last_use;
      stats = binary_stats ~prefilter h path footer;
      words = Mapped path;
    }

(* A text file is scanned once into an arena — the last-use index, and
   the accessor statistics when filtering, come with it — and then runs
   like a binary one.  The clock starts before the scan, whose
   checkpoints also honor the deadline. *)
let run_text ?timeout ?heartbeat ~reclaim ~prefilter ~shards ?sched ?flight
    (module C : Aerodrome.Checker.S) path =
  let started = Unix.gettimeofday () in
  let checkpoint =
    Option.map
      (fun budget () -> if Unix.gettimeofday () > started +. budget then raise Exit)
      timeout
  in
  let stats = prefilter <> Off in
  match Traces.Parser.read_packed ~stats ?checkpoint path with
  | exception Exit ->
    (* timed out mid-scan: no event reached a checker.  One is still
       created (on empty domains) so the run reports its counters *)
    collected ~file:path (fun () ->
        note_decision ~stealing:false "timeout";
        ignore (C.create ~threads:0 ~locks:0 ~vars:0);
        {
          checker = C.name;
          outcome = Timed_out;
          seconds = Unix.gettimeofday () -. started;
          events_fed = 0;
          metrics = runner_entries ?file_bytes:(file_size path) (ref (-1.0));
        })
  | p ->
    let arena = p.Traces.Parser.arena and sy = p.Traces.Parser.symbols in
    let events = Packed.Arena.length arena in
    run_source ?timeout ?heartbeat ~reclaim ~prefilter ~shards ?flight ~started
      (module C)
      (sharding ?sched ~shards ~timeout ~events (module C))
      {
        file = Some path;
        threads = Array.length sy.Trace.Symbols.threads;
        locks = Array.length sy.Trace.Symbols.locks;
        vars = Array.length sy.Trace.Symbols.vars;
        events;
        last_use =
          Lazy.from_val (if reclaim then Some p.Traces.Parser.lifetime else None);
        stats = p.Traces.Parser.stats;
        words = Arena arena;
      }

let run_stream ?timeout ?heartbeat ?(reclaim = true) ?(prefilter = Off)
    ?(shards = 1) ?sched ?flight checker path =
  if Binfmt.is_binary path then
    run_binary ?timeout ?heartbeat ~reclaim ~prefilter ~shards ?sched ?flight
      checker path
  else
    run_text ?timeout ?heartbeat ~reclaim ~prefilter ~shards ?sched ?flight
      checker path

(* --- multi-file fan-out --- *)

type file_report = {
  file : string;
  report : (result, string) Stdlib.result;
}

let run_file ?timeout ?heartbeat ?reclaim ?prefilter ?shards ?sched ?flight
    checker path =
  match
    run_stream ?timeout ?heartbeat ?reclaim ?prefilter ?shards ?sched ?flight
      checker path
  with
  | r -> Ok r
  | exception Traces.Binfmt.Corrupt msg -> Error msg
  | exception Traces.Parser.Parse_error e ->
    Error (Format.asprintf "%s: %a" path Traces.Parser.pp_error e)
  | exception Sys_error msg -> Error msg

let run_many ?timeout ?heartbeat ?reclaim ?prefilter ?shards ?sched ?flight
    checker paths =
  let report ?heartbeat ?sched path =
    {
      file = path;
      report =
        run_file ?timeout ?heartbeat ?reclaim ?prefilter ?shards ?sched ?flight
          checker path;
    }
  in
  match sched with
  | Some sc when List.compare_length_with paths 1 > 0 ->
    (* One budget (DESIGN.md §18): the scheduler owns every domain, and
       a file is just a task that spawns chunk tasks on the same deques
       — [await] helps, so a file task waiting on its chunks becomes
       another chunk consumer instead of an idle domain, and a second
       file's chunks start the moment any deque has room rather than at
       a file boundary.  The heartbeat is dropped (concurrent workers
       would interleave its lines). *)
    List.map
      (fun path -> Parallel.Deque.submit sc (fun () -> report ~sched:sc path))
      paths
    |> List.map (Parallel.Deque.await sc)
  | _ ->
    (* no scheduler, or one file: run on the calling domain (keeping
       the heartbeat); a lone file's chunks still fan out over [sched] *)
    List.map (report ?heartbeat ?sched) paths

let violating r =
  match r.outcome with Verdict (Some _) -> true | Verdict None | Timed_out -> false

let speedup ~baseline r =
  match (baseline.outcome, r.outcome) with
  | Timed_out, Timed_out -> None
  | _ -> Some (baseline.seconds /. r.seconds)

let pp ppf r =
  let outcome =
    match r.outcome with
    | Timed_out -> "timeout"
    | Verdict None -> "serializable"
    | Verdict (Some v) ->
      Printf.sprintf "violation @%d" (v.Aerodrome.Violation.index + 1)
  in
  Format.fprintf ppf "%s: %s in %.3fs (%d events)" r.checker outcome r.seconds
    r.events_fed

let pp_file_report ppf fr =
  match fr.report with
  | Ok r -> Format.fprintf ppf "%s: %a" fr.file pp r
  | Error msg -> Format.fprintf ppf "%s: error: %s" fr.file msg
