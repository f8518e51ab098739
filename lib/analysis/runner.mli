(** Timed checker runs with a wall-clock budget.

    The paper runs each analysis with a 10-hour timeout and reports [TO]
    where it is exceeded; this runner does the same at laptop scale.  Time
    is checked every few thousand events so the overhead on the measured
    loop is negligible.

    {2 Telemetry}

    When telemetry is enabled ({!Obs.enable}) each run opens an ambient
    {!Obs.Scope}: the checker's {!Aerodrome.Cmetrics} registry attaches
    to it and its snapshot is returned in [result.metrics], together
    with runner-level entries —

    - ["violation.seconds"]: elapsed seconds to the first violation;
    - ["ingest.file_bytes"]: size of the trace file (file-based runs);
    - ["decision.exec"]: the path the run took, [sequential] or
      [stealing], and ["decision.exec_reason"] why: [no-scheduler],
      [shards-1], [timeout], [checker] (a non-default checker),
      [small-trace] (see {!steal_worthwhile}), [critical-path] (an auto
      plan weighed, see {e Sharded checking}) or [forced] (an explicit
      chunk count).  The two labels are categorical
      ({!Obs.Snapshot.Label}) readings: text in [--stats] and
      [--stats-json], a labelled gauge in the OpenMetrics exposition.
      A planned run, stealing or sequential, adds
      ["decision.critical_path_events"] ({!Parallel.Shard.critical_path}),
      ["decision.events"], the arena length it was weighed against, and
      the serial prefix in front of any checker:
      ["decision.arena_seconds"], the time to build that arena (decoding
      a binary file, or filtering the input; [0] when a scanned text
      file or a materialized trace hands its arena in), and
      ["decision.plan_seconds"], the time of {!Parallel.Shard.plan} and
      its weighing.

    Runs that execute a plan on the scheduler report ["shard.chunks"],
    ["shard.skipped_chunks"]
    (chunks that ran no checker because a repair re-feeds them),
    ["shard.quiescent_cuts"], ["shard.seamed_cuts"],
    ["shard.tainted_events"], ["shard.repaired_events"],
    ["shard.repair_fraction"], ["shard.plan_seconds"],
    ["shard.merge_seconds"] and per-chunk ["shard.chunk<i>.events"] /
    ["shard.chunk<i>.seconds"] entries.  Their ["events.*"],
    ["txn.begins"] and ["txn.commits"] equal the sequential run's
    ({!Parallel.Shard.outcome}).
    Flight-recorded violating runs add ["flight.slice_events"] and
    ["flight.validated"] (see {e Violation flight recording}).

    While a metrics exporter is live ({!Obs.Exporter.serve}), each
    file-based run's scope is exposed with a [file="<path>"] label, so
    concurrent runs scrape as distinct series.

    With telemetry disabled [metrics] is {!Obs.Snapshot.empty} and the
    per-event cost of the plumbing is one branch.  A [heartbeat]
    (ticked from the existing 4096-event timeout checkpoint) emits
    progress lines independently of the metric scope.  When a
    {!Obs.Chrome_trace} collector is active, runs record an instant
    marker at the first violation, and sharded runs record planner and
    per-chunk feed spans.

    {2 State reclamation}

    Every run function takes [?reclaim] (default [true]), selecting the
    checkers' state-lifetime policy ({!Aerodrome.Reclaim}): when a
    last-use oracle is available — computed from a materialized trace,
    read from a version-2 binary footer, or noted while a text file is
    scanned — each variable's clock state is released back to the
    pool at its final access, making peak memory proportional to live
    variables; a stream with no oracle falls back to the inactivity
    heuristic (periodic epoch-collapse of cold state).  Verdicts and
    violation indices are identical either way. *)

type outcome =
  | Verdict of Aerodrome.Violation.t option
      (** the whole trace was processed (or the checker froze at its first
          violation) *)
  | Timed_out

type result = {
  checker : string;  (** the checker's [name] *)
  outcome : outcome;
  seconds : float;  (** wall-clock analysis time (trace generation and
                        I/O excluded) *)
  events_fed : int;
      (** events the checker actually processed — with a prefilter this is
          the {e reduced} count, as are violation indices *)
  metrics : Obs.Snapshot.t;
      (** per-run metric snapshot; empty when telemetry is disabled *)
}

type prefilter =
  | Off  (** feed the checker every event (the default) *)
  | Exact
      (** {!Traces.Prefilter.Exact}: whole-trace accessor statistics — from
          the materialized trace, a v3 binary footer, a text file's
          scan, or (binary v1/v2) a dedicated pre-scan *)
  | Auto
      (** exact when the statistics come for free (materialized trace, v3
          binary footer, text scan), {e off} otherwise (binary v1/v2
          files) *)
(** Sound trace reduction between ingestion and the checker
    ({!Traces.Prefilter}): drops thread-local, read-only, redundant and
    lock-local events.  Verdicts are preserved; violation indices refer
    to the reduced stream.  Composes with [reclaim]: the last-use oracle
    can only fire late on a filtered stream, never early (and {!run}
    recomputes it on the filtered trace).  With telemetry on, the
    per-rule elision counters land in [metrics] as [prefilter.*].

    {2 Violation flight recording}

    Every run function takes [?flight], a directory.  When set, a run
    that ends in a violation emits a witness bundle into it
    ({!Witness.emit}): a JSON diagnosis ([<name>.witness.json]) and a
    replayable binfmt slice ([<name>.slice.bin]) that [rapid check]
    reproduces the violation on, where [<name>] is the input path with
    ['%'] and ['/'] percent-escaped (["trace"] for {!run}).  Nothing is
    recorded while the run goes on: after it, the words the checker was
    fed are read again from the run's source — the mapped binary file
    (through a fresh prefilter when the run filtered) or the packed
    arena — and the slice is cut from the latest globally quiescent
    position at or before the violation (position 0 at worst, so every
    violation gets one).  The bundle is validated in-process before the
    run returns (the slice is re-checked from its on-disk bytes) and
    the outcome lands in [metrics] as [flight.*].  A bundle that cannot
    be written degrades to a warning on stderr.  Sequential and sharded
    runs feed the same words, so they write the same bundle, byte for
    byte.

    {2 Sharded checking}

    Every file-level run function (and {!run}) takes [?sched], a
    {!Parallel.Deque} work-stealing scheduler, and [?shards] (default
    [1], which turns sharding off; [0] means {e auto}).  Sharding
    happens only on a lent scheduler: without one every run is
    sequential.  With one and [shards <> 1] the (filtered) event stream
    is materialized into a packed arena and planned
    ({!Parallel.Shard.plan}): partitioned into contiguous chunks at
    boundary-summary cuts — arbitrary positions annotated with each
    thread's open-transaction depth, snapped to a nearby globally
    quiescent position when one exists — each with the repair window
    it owes.  Auto cuts fine-grained micro-chunks (oversubscribed ~8x
    per scheduler domain), keeps traces too small to amortize the
    planner on the sequential path ({!steal_worthwhile}), and then
    weighs the plan: its critical path
    ({!Parallel.Shard.critical_path}) must be at most 0.7 of the arena
    for the chunks to run on the scheduler.  Otherwise — long
    transactions straddling every cut, so one chunk's repair re-feeds
    the rest — the arena is fed sequentially with the last-use oracle,
    and nothing is submitted: the scheduler's worker domains, which
    spawn at the first submit, never start.  An explicit [shards]
    forces that exact plan onto the scheduler.  Each chunk runs as a
    scheduler task from a checker seeded with its boundary summary
    ({!Parallel.Shard.execute}) and performs the seam repairs it owns
    as soon as it retires: only the events between a non-quiescent cut
    and the retirement of the transactions it straddles (and of those
    open at their close) are re-fed against the true frontier, instead
    of replaying whole chunks ({!Aerodrome.Merge}, DESIGN.md §17,
    §18).  Verdicts, violation indices and [events_fed] are
    {e byte-identical} to the sequential path, whichever path runs; a
    cut through open transactions costs a repair window, never a
    divergent answer.

    A lent scheduler leaves a run sequential, and says why in
    ["decision.exec_reason"], when [shards = 1], when the exactness
    argument does not apply — non-default checkers and runs with a
    [timeout] — when an auto run's trace is too small, and when an auto
    plan's critical path does not beat one sequential feed.  Runs that
    execute a plan report ["shard.*"] entries; scheduler-level telemetry
    (steals, injections, per-domain busy seconds) lives on the
    scheduler ({!Parallel.Deque.stats}) because its counters span every
    run sharing it. *)

val steal_worthwhile : shards:int -> events:int -> bool
(** Whether a run with [?shards] on a trace of [events] events would
    use a lent work-stealing scheduler: an explicit chunk count always
    does, auto micro-chunking only from two minimum-size chunks up
    (below that the planner costs more than the parallelism returns).
    Core-count independent: the caller's scheduler fixes the domain
    budget.  A run that passes it still stays sequential when its auto
    plan does not pay (see {e Sharded checking}). *)

val run :
  ?timeout:float -> ?heartbeat:Obs.Heartbeat.t -> ?reclaim:bool ->
  ?prefilter:prefilter -> ?shards:int -> ?sched:Parallel.Deque.t ->
  ?flight:string -> Aerodrome.Checker.t -> Traces.Trace.t -> result
(** [timeout] in seconds; default: none.  [heartbeat] is restarted, given
    the trace length as total, and ticked as the run progresses.  The
    trace is filtered, and packed into an arena, before the timer
    starts; with [reclaim] (the default) the last-use oracle is
    computed on the already-filtered trace, pre-timer too.  The arena
    then runs exactly like a scanned text file.
    @raise Invalid_argument when the trace's id domains exceed
    {!Traces.Packed.fits}. *)

val run_stream :
  ?timeout:float -> ?heartbeat:Obs.Heartbeat.t -> ?reclaim:bool ->
  ?prefilter:prefilter -> ?shards:int -> ?sched:Parallel.Deque.t ->
  ?flight:string -> Aerodrome.Checker.t -> string -> result
(** Analyze a trace file, auto-detecting the format.  Binary files
    stream in one pass (domains from the header): peak memory is the
    checker's state plus an I/O buffer, independent of the trace length.
    Text files are read once into a packed arena
    ({!Traces.Parser.read_packed}, 8 bytes per event), since the text
    format only reveals its domains once scanned; the arena then runs
    exactly like a binary file.  For text traces [seconds] includes the
    scan, and [timeout] is checked every 4096 lines of it (a scan that
    runs out of time reports [Timed_out] with no event fed).

    Both formats take the {e packed} ingestion path: binary files are
    memory-mapped and each record decodes into one {!Traces.Packed}
    int word ({!Traces.Binfmt.fold_packed}), text files feed their
    arena's words, and the checker's [feed_packed] entry takes them
    with no per-event heap allocation; the exact-mode prefilter also
    runs over the packed words.  A binary header whose id domains
    exceed {!Traces.Packed.fits} is refused before any event is read
    (a text trace that overflows them is a [Parse_error]).  A binary
    v1/v2 file has no statistics footer, so [Exact] pre-scans it and
    [Auto] runs unfiltered; a v2/v3 footer supplies the reclamation
    oracle.

    With [sched] lent, [shards] selects the sharded path where
    applicable (see {e Sharded checking} above).
    @raise Traces.Binfmt.Corrupt on a corrupt binary trace or one whose
    id domains exceed {!Traces.Packed.fits},
    [Traces.Parser.Parse_error] on a malformed text trace. *)

type file_report = {
  file : string;
  report : (result, string) Stdlib.result;
      (** [Error msg] when the file could not be analyzed (unreadable,
          corrupt binary, malformed text); [msg] is the rendered
          diagnostic. *)
}

val run_file :
  ?timeout:float -> ?heartbeat:Obs.Heartbeat.t -> ?reclaim:bool ->
  ?prefilter:prefilter -> ?shards:int -> ?sched:Parallel.Deque.t ->
  ?flight:string -> Aerodrome.Checker.t -> string ->
  (result, string) Stdlib.result
(** {!run_stream} with per-file error capture instead of exceptions:
    [Sys_error], {!Traces.Binfmt.Corrupt} and
    {!Traces.Parser.Parse_error} become [Error msg]. *)

val run_many :
  ?timeout:float -> ?heartbeat:Obs.Heartbeat.t -> ?reclaim:bool ->
  ?prefilter:prefilter -> ?shards:int -> ?sched:Parallel.Deque.t ->
  ?flight:string -> Aerodrome.Checker.t -> string list -> file_report list
(** Check many trace files, one {!file_report} per input path {e in input
    order}.  A failing file yields its [Error] report and the remaining
    files are still checked.

    Without [?sched] the files run one after another on the calling
    domain.  With one, the scheduler owns the whole domain budget
    across {e both} axes of parallelism: every file is submitted as one
    scheduler task, each file's chunks are further tasks on the same
    deques, and a file task awaiting its chunks {e helps} instead of
    idling, so there is no idle-domain gap at file boundaries.  Result
    ordering is still deterministic input order, and each report is
    byte-identical to the sequential one.  With a single path the run
    stays on the calling domain while its chunks fan out.

    [heartbeat] is forwarded to each file's run, except when files fan
    out (concurrent workers would interleave its lines). *)

val pp_file_report : Format.formatter -> file_report -> unit
(** ["path: <report>"] or ["path: error: <msg>"]. *)

val violating : result -> bool
(** True iff the run finished with a violation. *)

val speedup : baseline:result -> result -> float option
(** [speedup ~baseline r] is [baseline.seconds /. r.seconds].  [None] when
    {e both} runs timed out (no meaningful ratio); if only the baseline
    timed out, its budget is used as a lower bound, matching the paper's
    "> n" entries. *)

val pp : Format.formatter -> result -> unit
