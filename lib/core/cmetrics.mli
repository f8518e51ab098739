(** Shared per-checker-instance metric set.

    Every checker constructor creates one of these; its registry is
    attached to the ambient {!Obs.Scope} (when one is active, i.e. the
    runner is collecting), so the runner can harvest per-run metrics
    without widening the {!Checker.S} signature — the verbatim reference
    copies under [test/reference] keep compiling unchanged.

    Per-event updates are gated at the call site with
    [if Obs.on () then ...]; a disabled run costs one branch per event.
    The exception is {!Monitor}, whose statistics predate this module
    and stay unconditional ([stats] reads counter values directly). *)

type t = {
  registry : Obs.Registry.t;
  events : Obs.Counter.t;
  reads : Obs.Counter.t;
  writes : Obs.Counter.t;
  acquires : Obs.Counter.t;
  releases : Obs.Counter.t;
  forks : Obs.Counter.t;
  joins : Obs.Counter.t;
  begins : Obs.Counter.t;  (** all [Begin] events, nested included *)
  ends : Obs.Counter.t;
  txn_begins : Obs.Counter.t;  (** outermost transaction begins *)
  txn_commits : Obs.Counter.t;  (** outermost transaction ends *)
  vc_joins : Obs.Counter.t;  (** vector-clock join operations *)
  stale_readers : Obs.Histogram.t;
      (** size of [Stale^r_x] at each flush (Opt only) *)
  lock_updates : Obs.Histogram.t;
      (** size of [UpdateSet^l_t] at each transaction end (Opt only) *)
  violation_index : Obs.Gauge.t;  (** event index of the violation, -1 if none *)
}

val create : ?attach:bool -> unit -> t
(** [attach] (default true) registers the new metric set with the
    ambient {!Obs.Scope} when one is active. *)

val count_op : t -> int -> unit
(** Count one event by its packed opcode ({!Traces.Packed}). *)

val txn_begin : t -> unit
val txn_commit : t -> unit
val vc_join : t -> unit
val vc_joins_add : t -> int -> unit
val observe_stale_readers : t -> int -> unit
val observe_lock_updates : t -> int -> unit
val found_violation : t -> int -> unit
val registry : t -> Obs.Registry.t
val snapshot : t -> Obs.Snapshot.t
