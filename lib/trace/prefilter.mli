(** Sound streaming trace reduction.

    Drops events that provably cannot affect the conflict-serializability
    verdict, so the checkers process a shorter trace:

    - rule (a) {e thread-local}: accesses to a variable only ever
      touched by one thread — every conflict edge it could justify is a
      same-thread edge, already implied by program order;
    - rule (b) {e read-only}: accesses to a variable that is never
      written — reads do not conflict with reads;
    - rule (c) {e redundant}: a repeated same-variable access within one
      transaction whose conflict edges are all covered by an earlier
      access of the same transaction (a re-read with no interposed
      retained write, a re-write with no interposed retained access);
    - rule (d) {e lock-local}: acquires/releases of a lock only ever
      held by one thread — release-to-acquire edges need two threads.

    Two modes.  {!Exact} knows the whole-trace {!Varstats} up front
    (from a materialized trace, the binfmt v3 footer, the text reader's
    scanned arena, or a dedicated pre-scan) and applies all four rules
    as a pure per-event decision.  {!Online} is single-pass: rule (c) is
    applied exactly, while for (a), (b) and (d) it buffers a variable's
    (or lock's) events while the object is still single-owner, flushes
    the buffer — in order, ahead of the disqualifying event — the moment
    a second thread or a first write shows up, and drops whatever is
    still buffered at end of stream.  Buffers are also flushed at the
    owning thread's outermost begin/end so every event is emitted within
    the transaction it belongs to; consequently the online mode can only
    drop (a)/(b)/(d) events whose enclosing transaction is still open at
    the end of the trace (for closed transactions a single-pass filter
    provably cannot decide early — see DESIGN.md §13).

    Both modes preserve the verdict of every checker: the reduced trace
    has a conflict-serializability violation iff the original does.
    Violation {e indices} refer to the reduced stream. *)

type mode =
  | Exact of Varstats.t  (** whole-trace statistics known up front *)
  | Online  (** single pass, adaptive buffering *)

type counts = {
  mutable events_in : int;
  mutable kept : int;  (** events emitted downstream *)
  mutable thread_local : int;  (** rule (a) drops *)
  mutable read_only : int;  (** rule (b) drops *)
  mutable redundant : int;  (** rule (c) drops *)
  mutable lock_local : int;  (** rule (d) drops *)
  mutable flushed : int;  (** online: buffered events force-emitted *)
  mutable pending_hwm : int;  (** online: peak single-thread buffer size *)
}

val elided : counts -> int
(** Total drops across the four rules. *)

type t

val create : ?cap:int -> mode -> t
(** A fresh filter.  [cap] bounds each thread's online buffer (default
    32768); overflowing buffers are flushed, trading reduction for
    memory.  Ignored in exact mode. *)

val feed : t -> Event.t -> (Event.t -> unit) -> unit
(** [feed t e emit] pushes one event; [emit] is called for each retained
    event ready to go downstream (possibly several: a flush; possibly
    none: a drop or a buffer). *)

val finish : t -> (Event.t -> unit) -> unit
(** End of stream: emits or drops any buffered events, then publishes
    the per-rule counters to the ambient {!Obs.Scope} (when telemetry is
    enabled) as [prefilter.*] entries. *)

val feed_packed : t -> int -> (int -> unit) -> unit
(** {!feed} over {!Packed} words.  In exact mode the rule engine runs
    entirely on the bit slices — elided events are never materialized as
    {!Event.t}.  Online mode buffers boxed events internally (per-thread
    queues), so packed callers pay an unpack/repack per event there; the
    runner only routes a packed stream through online mode when the user
    forced it explicitly. *)

val finish_packed : t -> (int -> unit) -> unit
(** {!finish} for packed consumers. *)

val counts : t -> counts

val filter_seq : t -> Event.t Seq.t -> Event.t Seq.t
(** The filtered stream, [finish] included after the last element.  The
    result is ephemeral (backed by [t]'s mutable state): force it once. *)

val run_trace : [ `Exact | `Online ] -> Trace.t -> Trace.t * counts
(** Filter a materialized trace ([`Exact] computes {!Varstats.of_trace}
    itself).  Symbols are carried over so reports keep the input's
    vocabulary; id-domain sizes are re-inferred from the surviving
    events. *)
