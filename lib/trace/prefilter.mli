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

    One mode, {!Exact}: the whole-trace {!Varstats} are known up front
    (from a materialized trace, the binfmt v3 footer, the text reader's
    scanned arena, or a dedicated pre-scan), and all four rules are a
    pure per-event decision, so the filter buffers nothing.

    The filter preserves the verdict of every checker: the reduced
    trace has a conflict-serializability violation iff the original
    does.  Violation {e indices} refer to the reduced stream. *)

type mode = Exact of Varstats.t  (** whole-trace statistics known up front *)

type counts = {
  mutable events_in : int;
  mutable kept : int;  (** events emitted downstream *)
  mutable thread_local : int;  (** rule (a) drops *)
  mutable read_only : int;  (** rule (b) drops *)
  mutable redundant : int;  (** rule (c) drops *)
  mutable lock_local : int;  (** rule (d) drops *)
}

val elided : counts -> int
(** Total drops across the four rules. *)

type t

val create : mode -> t
(** A fresh filter. *)

val feed : t -> Event.t -> (Event.t -> unit) -> unit
(** [feed t e emit] pushes one event; [emit] is called once if the event
    is retained, not at all if it is dropped. *)

val finish : t -> (Event.t -> unit) -> unit
(** End of stream: publishes the per-rule counters to the ambient
    {!Obs.Scope} (when telemetry is enabled) as [prefilter.*] entries.
    Nothing is buffered, so nothing is emitted. *)

val feed_packed : t -> int -> (int -> unit) -> unit
(** {!feed} over {!Packed} words.  The rule engine runs entirely on the
    bit slices — elided events are never materialized as {!Event.t}. *)

val finish_packed : t -> (int -> unit) -> unit
(** {!finish} for packed consumers. *)

val counts : t -> counts

val run_trace : [ `Exact ] -> Trace.t -> Trace.t * counts
(** Filter a materialized trace ([`Exact] computes {!Varstats.of_trace}
    itself).  Symbols are carried over so reports keep the input's
    vocabulary; id-domain sizes are re-inferred from the surviving
    events. *)
