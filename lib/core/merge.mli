(** Boundary-summary cut planning for sharded single-trace checking.

    The planner partitions a packed arena into contiguous chunks for
    speculative per-chunk checking ({!Parallel.Shard}).  Unlike the
    quiescence-only planner it replaces, it accepts {e any} cut: each
    boundary carries a summary — the per-thread open-transaction depth
    vector and the taint of the open transactions' pre-cut accesses —
    from which the chunk checker is seeded ({!Opt.seed_boundary}) and
    from which the reconciliation pass derives the {e repair window},
    the span of events it must re-run against the true frontier
    because the seed cannot reproduce their outcomes (DESIGN.md §17):

    - no open transactions at the cut (globally quiescent): window 0;
    - open transactions that have accessed nothing since their
      outermost begin: window 0 — depth seeding is exact;
    - otherwise: the gap to the two-phase retirement horizon — every
      straddling transaction closes, then every transaction open at
      that moment closes too.  The clock components a seeded chunk is
      missing are all generations of transactions begun before the
      last straddler's close, and AeroDrome's violation checks are
      own-component epoch tests, so past that horizon no surviving
      surplus can flip a check.  A globally quiescent position closes
      every pending window at once, so the horizon never extends past
      the next one.

    Planning reads only the event text (depth and access counters per
    thread), never clock state, in a single pass over the arena that
    allocates nothing per event: O(1) per event, plus O(open repair
    windows) at each outermost [End] — the only place a window's
    waiting set can shrink. *)

type boundary = {
  cut : int;  (** arena position of the cut (before event [cut]) *)
  depths : int array;
      (** per-thread open-transaction depth at the cut; all zero iff
          the cut is globally quiescent *)
  window : int;
      (** repair window length: events from [cut] that reconciliation
          must re-run against the true frontier; [0] when seeding is
          exact *)
  tainted : int;
      (** boundary-tainted accesses: events the straddling open
          transactions performed before the cut, whose clock effects
          the seeded chunk cannot see *)
}

type plan = {
  boundaries : boundary array;
      (** chunk entry boundaries in increasing [cut] order; always
          starts with the origin ([cut = 0], no straddlers) *)
  targets : int;  (** equidistant (or forced) candidates considered *)
  quiescent : int;
      (** candidates that became window-0 cuts with no straddlers
          (quiescent at the cut, or snapped to a quiescent position) *)
  seamed : int;
      (** candidates cut mid-transaction, carrying a boundary summary *)
  tainted_events : int;  (** total tainted accesses across boundaries *)
  repair_events : int;
      (** planned repair total: window segments clipped against the
          covered frontier (window ends are monotone in cut order, so
          overlapping windows share rather than stack their events) *)
}

val trivial : threads:int -> plan
(** The single-chunk plan: one boundary at the origin. *)

val plan :
  threads:int -> shards:int -> ?cuts:int list -> Traces.Packed.Arena.t -> plan
(** [plan ~threads ~shards arena] places [shards - 1] equidistant
    cuts, snapping each to a nearby globally quiescent position when
    one exists (a free window-0 cut) and otherwise accepting the
    candidate position with its boundary summary.  [?cuts] forces
    exact cut positions instead (no snapping; out-of-range and
    duplicate positions are dropped) — the differential tests use it
    to pin cuts mid-transaction.  With [shards <= 1], an empty arena,
    or no surviving forced cut, returns {!trivial}. *)

val bounds : plan -> total:int -> (int * int) array
(** [bounds plan ~total] is the [(base, stop)] half-open chunk extent
    per boundary, partitioning [0..total). *)

type seam = {
  owner : int;
      (** index of the chunk whose checker repairs this seam: the
          nearest surviving predecessor, whose exact state reaches
          [from_] *)
  from_ : int;  (** repair segment start: the covered frontier at the cut *)
  upto : int;
      (** repair segment end ([max from_ (min total (cut + window))]);
          [upto = from_] means nothing to repair *)
  exact_from : int;
      (** first position from which this chunk's own speculative
          verdict is trusted; a chunk-local violation rebased below it
          must be confirmed by a repair *)
  survives : bool;
      (** whether this chunk's checker is consulted at all — false
          when its whole extent falls inside the repair horizon and is
          re-fed by the segment instead; {!Parallel.Shard} then runs
          no checker on the chunk *)
}

val seams : plan -> total:int -> seam array
(** The left-to-right reconciliation fold of {!Parallel.Shard},
    precomputed from the plan alone — no chunk results needed.  Entry
    [0] is the trivial seam (chunk 0 is exact from the origin); entry
    [k >= 1] describes the seam at boundary [k].  Because segment
    extents, owners and survival are static, chunks may execute and
    repair out of order: a chunk performs the repairs it owns as soon
    as it retires, and the final verdict is the minimum-index
    candidate (DESIGN.md §18).  Exposed for {!Parallel.Shard} and the
    plan-invariant tests. *)
