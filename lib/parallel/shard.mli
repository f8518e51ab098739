(** Single-trace chunked parallel checking over a packed arena.

    {!plan} partitions an arena into contiguous chunks at the
    boundary-summary cuts chosen by {!Aerodrome.Merge.plan}, and
    {!execute} runs an
    independent speculative {!Aerodrome.Opt} checker on each chunk —
    seeded from the cut's boundary summary
    ({!Aerodrome.Opt.seed_boundary}) and submitted as a task to a
    {!Deque} work-stealing scheduler — {e repairing} each cut's window
    against the true sequential frontier instead of replaying whole
    chunks.  A chunk that lies wholly inside an earlier cut's repair
    window is {e skipped}: the repair re-feeds its range, so no
    checker runs on it.

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
    non-faithful), which is why [execute] takes no checker
    module: the caller — normally {!Analysis.Runner} — gates sharding
    on the checker being ["aerodrome"].  Chunk checkers run with
    {!Aerodrome.Reclaim.Off} (reclamation is verdict-neutral, and
    oracle indices would be meaningless chunk-locally). *)

type task = {
  base : int;  (** chunk entry position in the arena *)
  stop : int;  (** chunk end, exclusive *)
  violation : Aerodrome.Violation.t option;
      (** first violation of the chunk's speculative run, index
          {e chunk-local}; [None] for a skipped chunk *)
  seconds : float;
      (** wall-clock of this chunk's checker over its own range
          (repairs excluded); [0.] for a skipped chunk *)
  metrics : Obs.Snapshot.t;
      (** the chunk checker's own counters, collected on the worker
          domain; empty with telemetry off and for a skipped chunk *)
}
(** One chunk of the plan, in trace order.  A chunk whose seam does not
    survive ({!Aerodrome.Merge.seam.survives} false) is {e skipped}: its
    whole range is re-fed by an earlier owner's repair, so no checker
    runs on it.  The chunk checkers themselves are not exposed — each
    lives only inside its task (repairs run there too), so its state is
    garbage once the task retires. *)

type outcome = {
  violation : Aerodrome.Violation.t option;
      (** reconciled verdict, index rebased to the arena; always the
          same violation the sequential checker reports *)
  plan : Aerodrome.Merge.plan;
  tasks : task array;  (** one per chunk, in trace order *)
  skipped_chunks : int;
      (** chunks that ran no checker because their range is re-fed by a
          repair *)
  repaired_events : int;
      (** events re-fed into the live frontier during window repair
          (the sharding overhead actually paid, [<=]
          [plan.repair_events]; a repair stops at a violation) *)
  metrics : Obs.Snapshot.t;
      (** the whole-run checker reading (empty with telemetry off): the
          chunk checkers' counters summed, with [violation.index]
          rewritten to the reconciled index and the [events.*],
          [txn.begins] and [txn.commits] counters derived from the
          arena prefix the sequential checker feeds ([\[0, violation
          index\]], or all of it), so they equal a sequential run's *)
  plan_seconds : float;  (** cut-scan (boundary summary) wall-clock *)
  merge_seconds : float;  (** final verdict assembly wall-clock *)
}

type schedule = {
  plan : Aerodrome.Merge.plan;
  bounds : (int * int) array;  (** [(base, stop)] per chunk *)
  seams : Aerodrome.Merge.seam array;  (** the precomputed fold *)
  owned : (int * int) list array;
      (** per chunk, the repair segments its checker feeds after its
          own range, ascending *)
  plan_seconds : float;  (** cut-scan (boundary summary) wall-clock *)
}
(** A plan ready to run: the cuts ({!Aerodrome.Merge.plan}) and what
    the reconciliation fold derives from them alone. *)

val plan :
  ?oversub:int -> ?chunk_floor:int -> ?cuts:int list -> domains:int ->
  shards:int -> threads:int -> Traces.Packed.Arena.t -> schedule
(** Plan a fully built arena for [domains] worker domains, without a
    scheduler.  With [shards = 0] the arena is cut into fine-grained
    micro-chunks — [oversub] (default 8) chunks per domain, floored at
    [chunk_floor] (default 8192) events per chunk; an explicit [shards]
    forces that exact chunk count.  [cuts] forces exact cuts, taken
    verbatim and never snapped (the adversarial-boundary test hook);
    [shards], [oversub] and [chunk_floor] are ignored when it is given.
    When a Chrome trace collector is active the planner is recorded as
    a "shard"-category span. *)

val critical_path : domains:int -> schedule -> int
(** The events the longest path through an execution on [domains]
    domains feeds: [max (max_i w_i) (ceil (sum_i w_i / domains))], where
    a surviving chunk's work [w_i] is its own range plus the repair
    segments it owns and a skipped chunk's is 0.  A plan whose critical
    path is close to the arena length saves nothing over one
    sequential feed (DESIGN.md §18). *)

val execute :
  sched:Deque.t -> threads:int -> locks:int -> vars:int ->
  Traces.Packed.Arena.t -> schedule -> outcome
(** Run a plan of this arena on [sched] (DESIGN.md §18).  A
    single-chunk plan runs in the calling domain.

    Every chunk is a scheduler task, executed in whatever order the
    deques and steals produce; a non-surviving chunk's task runs no
    checker.  Reconciliation is the {e precomputed}
    left-to-right fold ({!Aerodrome.Merge.seams}): each chunk task, once
    its own range is fed, immediately performs the seam repairs it owns
    (its exact state already reaches them, and the arena is immutable,
    so no other chunk need have retired), a completion bitmap records
    retirement for the final assembly, and the verdict is the
    minimum-index candidate over the chunks' exact regions and the
    repair segments — which partition the arena, so the answer is
    byte-identical to the sequential checker.  [merge_seconds] covers
    only the final assembly (repairs are on the chunk tasks' clock).
    When a Chrome trace collector is active each chunk's feed loop (on
    its worker domain) is recorded as a "shard"-category span.

    @raise Failure if a chunk's speculative violation inside a
    repaired window is not confirmed by the repair — impossible under
    the §17 containment invariant; the failure guards against silently
    reporting a verdict the sequential checker would not produce. *)

val check_stealing :
  sched:Deque.t -> ?oversub:int -> ?chunk_floor:int -> ?cuts:int list ->
  shards:int -> threads:int -> locks:int -> vars:int ->
  Traces.Packed.Arena.t -> outcome
(** {!plan} for [sched]'s domain count, then {!execute}. *)
