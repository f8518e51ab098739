(** AeroDrome, Algorithm 3: the fully optimized checker.

    On top of the Algorithm 2 read-clock reduction this variant implements
    the three Appendix C.2 optimizations:

    - {b Lazy clock updates}: a write inside an active transaction only
      marks [W_x] stale ([Stale^w_x = ⊤]); readers compare against the
      writer's live clock until the writing transaction ends and the clock
      is materialized.  Reads accumulate in [Stale^r_x] and are flushed
      into [R_x]/[hR_x] at the next write or at the reader's end.
    - {b Update sets}: each thread records the variables whose [W_x]/[R_x]
      clocks its transaction end must refresh ([UpdateSet^{w,r}_t]), so end
      events touch only relevant variables instead of all of them.
    - {b Transaction garbage collection}: a completing transaction that can
      never lie on a cycle skips all end-of-transaction propagation.

    In addition, every [⊑]-comparison whose left operand is a begin clock
    [C⊲_t] is performed in [O(1)] by comparing only the [t]-component, an
    epoch-style shortcut justified by the algorithm's invariant that clocks
    grow only by whole-clock joins (so [clk(t) ≥ C⊲_t(t)] implies
    [C⊲_t ⊑ clk]); [create_with ~fast_checks:false] restores full
    comparisons everywhere they are meaningful.  The write-versus-reads
    check against [hR_x] always uses the component comparison: [hR_x] joins
    reader clocks with each reader's own component zeroed, so the full
    pointwise order is the wrong relation for it (see {!Reduced}).

    {b Deviations from the printed pseudocode} (each covered by a
    regression test that fails under the printed behaviour, reproducible
    with [create_with ~faithful:true]):

    + Unary (transaction-free) accesses update [W_x]/[R_x] eagerly instead
      of lazily.  The printed algorithm leaves a unary read in [Stale^r_x]
      with no transaction end to ever flush or clear it, so a later flush
      uses the reading thread's {e current} clock — by then inflated by
      unrelated newer transactions — yielding false positives
      ({!Workloads.Scenarios.unary_flush_false_positive}).
    + When a transaction end refreshes [W_x] (resp. [R_x]), the variable is
      also added to [UpdateSet^{w}_u] (resp. [UpdateSet^{r}_u]) of every
      other covered active transaction.  The printed algorithm populates
      update sets only at the access itself, so an ordering established
      {e transitively} through a third transaction's end never reaches the
      update set and the final refresh is skipped, missing real violations
      ({!Workloads.Scenarios.transitive_update_miss}).
    + The garbage-collection test.  The printed criterion —
      [parentTr alive ∨ C⊲_t[0/t] ≠ C_t[0/t]] — misses incoming edges that
      carry no new clock components (repeated interaction with the same
      long-running transaction,
      {!Workloads.Scenarios.gc_clock_equality_miss}) as well as
      program-order edges from the thread's own earlier kept transactions.
      The sound criterion used here keeps a completing transaction iff its
      clock contains the begin of some other thread's still-active
      transaction: any future cycle must route through a currently-active
      foreign transaction whose begin-knowledge has already flowed along
      the cycle's frozen prefix into this thread's clock. *)

include Checker.S

val create_with :
  ?fast_checks:bool -> ?faithful:bool -> threads:int -> locks:int ->
  vars:int -> unit -> t
(** [create] is [create_with ~fast_checks:true ~faithful:false]. *)

val seed_boundary : t -> int array -> unit
(** [seed_boundary st depths] prepares a fresh checker to start
    mid-trace at a non-quiescent cut: every thread [t] with
    [depths.(t) > 0] re-enters an open transaction at that depth, as
    if its (unseen, pre-cut) begin had just been processed — own
    component bumped, begin clock assigned, marked active.  Used by
    {!Parallel.Shard} with the {!Merge} boundary summary; see
    DESIGN.md §17 for what the seed does and does not reproduce.
    Raises [Invalid_argument] if the checker has already been fed. *)

val faithful_checker : Checker.t
(** The printed-pseudocode behaviour packaged as a checker, for
    differential tests. *)

val slow_checker : Checker.t
(** Full-vector comparisons instead of the [O(1)] epoch shortcut. *)

val ntz : int -> int
(** Index of the lowest set bit of a non-zero mask whose lowest set bit
    is one of bits 0..61 (the covers masks' range): a single table
    lookup. *)

(** {1 Introspection} *)

val thread_clock : t -> int -> Vclock.Vtime.t
val begin_clock : t -> int -> Vclock.Vtime.t
val write_clock : t -> int -> Vclock.Vtime.t
(** The materialized [W_x]; meaningless while {!write_is_stale}. *)

val read_clock_joined : t -> int -> Vclock.Vtime.t
val read_clock_check : t -> int -> Vclock.Vtime.t

val write_is_stale : t -> int -> bool
(** Is [W_x] lazily represented by the last writer's live clock? *)

val last_writer : t -> int -> int option
val in_transaction : t -> int -> bool

val metrics : t -> Obs.Snapshot.t
(** Current reading of this instance's {!Cmetrics} registry.  Counters
    only advance when [Obs.on ()] held at [create] (telemetry is
    switched before checking starts) — see {!Cmetrics}. *)
