(** Single-trace chunked parallel checking over a packed arena.

    {!check_stealing} partitions an arena into contiguous chunks at the
    boundary-summary cuts chosen by {!Aerodrome.Merge.plan} and runs an
    independent speculative {!Aerodrome.Opt} checker on each chunk —
    seeded from the cut's boundary summary
    ({!Aerodrome.Opt.seed_boundary}) and submitted as a task to a
    {!Deque} work-stealing scheduler — {e repairing} each cut's window
    against the true sequential frontier instead of replaying whole
    chunks.

    The contract (DESIGN.md §17): a seeded chunk checker is
    generation-wise {e contained} in the sequential checker — it never
    reports a violation the sequential run would not — and it is
    {e exact} from the end of its cut's repair window (the two-phase
    horizon where the straddling transactions and then the
    transactions open at the last straddler's close have all retired;
    zero for touch-free and quiescent cuts) onward.  Each window
    segment is fed into a checker whose state is exact up to the
    segment start, and the chunk's speculative verdict is trusted for
    the remainder of its range.  The reported violation is
    byte-identical to the sequential checker's.

    Soundness of the boundary seed is specific to the default
    {!Aerodrome.Opt} configuration (component-epoch fast checks,
    non-faithful), which is why [check_stealing] takes no checker
    module: the caller — normally {!Analysis.Runner} — gates sharding
    on the checker being ["aerodrome"].  Chunk checkers run with
    {!Aerodrome.Reclaim.Off} (reclamation is verdict-neutral, and
    oracle indices would be meaningless chunk-locally). *)

type task = {
  base : int;  (** chunk entry position in the arena *)
  stop : int;  (** chunk end, exclusive *)
  checker : Aerodrome.Opt.t;
      (** the chunk's checker, kept live for the seam repairs the chunk
          owns *)
  violation : Aerodrome.Violation.t option;
      (** first violation of the chunk's speculative run, index
          {e chunk-local} *)
  seconds : float;  (** wall-clock of this chunk's checker *)
  metrics : Obs.Snapshot.t;
      (** the chunk checker's own counters, collected on the worker
          domain; empty with telemetry off.  {!Obs.Snapshot.merge} sums
          the per-chunk snapshots back into a whole-trace reading. *)
  flight : Traces.Flight.t option;
      (** the chunk's flight recorder when one was requested; indices
          are chunk-local ([base] is the recorder's position 0, seeded
          with the boundary's open-transaction depths so quiescence
          bookkeeping stays honest at a non-quiescent cut). *)
}

type outcome = {
  violation : Aerodrome.Violation.t option;
      (** reconciled verdict, index rebased to the arena; always the
          same violation the sequential checker reports *)
  plan : Aerodrome.Merge.plan;
  tasks : task array;  (** one per chunk, in trace order *)
  repaired_events : int;
      (** events re-fed into the live frontier during window repair
          (the sharding overhead actually paid, [<=]
          [plan.repair_events]; a repair stops at a violation) *)
  plan_seconds : float;  (** cut-scan (boundary summary) wall-clock *)
  merge_seconds : float;  (** final verdict assembly wall-clock *)
}

val check_stealing :
  sched:Deque.t -> ?oversub:int -> ?chunk_floor:int -> ?cuts:int list ->
  ?flight:int -> shards:int -> threads:int -> locks:int -> vars:int ->
  Traces.Packed.Arena.t -> outcome
(** Check a fully built arena on [sched] (DESIGN.md §18).  With
    [shards = 0] the arena is cut into fine-grained micro-chunks —
    [oversub] (default 8) chunks per scheduler domain, floored at
    [chunk_floor] (default 8192) events per chunk; an explicit [shards]
    forces that exact chunk count.  [cuts] forces exact cuts, taken
    verbatim and never snapped (the adversarial-boundary test hook);
    [shards], [oversub] and [chunk_floor] are ignored when it is given.
    [flight] attaches a violation flight recorder of that ring window
    to every chunk.  A single-chunk plan runs in the calling domain.

    Every chunk is a scheduler task, executed in whatever order the
    deques and steals produce.  Reconciliation is the {e precomputed}
    left-to-right fold ({!Aerodrome.Merge.seams}): each chunk task, once
    its own range is fed, immediately performs the seam repairs it owns
    (its exact state already reaches them, and the arena is immutable,
    so no other chunk need have retired), a completion bitmap records
    retirement for the final assembly, and the verdict is the
    minimum-index candidate over the chunks' exact regions and the
    repair segments — which partition the arena, so the answer is
    byte-identical to the sequential checker.  [merge_seconds] covers
    only the final assembly (repairs are on the chunk tasks' clock).
    When a Chrome trace collector is active the planner and each
    chunk's feed loop (on its worker domain) are recorded as
    "shard"-category spans.

    @raise Failure if a chunk's speculative violation inside a
    repaired window is not confirmed by the repair — impossible under
    the §17 containment invariant; the failure guards against silently
    reporting a verdict the sequential checker would not produce. *)
