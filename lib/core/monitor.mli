(** High-level online monitoring.

    {!Monitor} wraps a streaming checker with the plumbing a deployment
    needs: incremental statistics, symbol-aware violation reports, a
    violation callback, and a [stop_at_first] / keep-counting policy.  It
    is the API the examples use to watch a "live" program:

    {[
      let m =
        Monitor.create ~threads:8 ~locks:16 ~vars:4096
          ~on_violation:(fun report -> prerr_endline (Monitor.report_to_string report))
          ()
      in
      Seq.iter (fun e -> ignore (Monitor.observe m e)) events;
      Format.printf "%a@." Monitor.pp_stats (Monitor.stats m)
    ]} *)

open Traces

type t

type stats = {
  events : int;  (** events observed *)
  reads : int;
  writes : int;
  syncs : int;  (** acquire/release/fork/join *)
  transactions_started : int;  (** outermost begins *)
  transactions_completed : int;
  active_transactions : int;
}

type report = {
  violation : Violation.t;
  stats_at_detection : stats;
  thread_name : string;
  description : string;  (** one-line human-readable explanation *)
}

val create :
  ?checker:Checker.t ->
  ?symbols:Trace.Symbols.t ->
  ?on_violation:(report -> unit) ->
  threads:int -> locks:int -> vars:int -> unit -> t
(** [checker] defaults to the optimized AeroDrome ({!Opt}); pass
    [(module Velodrome.Online : Checker.S)]-style modules to monitor with
    a different algorithm.  [symbols] names threads/locks/variables in
    reports.
    @raise Invalid_argument when the domains fail {!Traces.Packed.fits}. *)

val of_trace_domains : ?checker:Checker.t -> ?on_violation:(report -> unit) ->
  Trace.t -> t
(** Domains and symbols taken from an existing trace. *)

val observe : t -> Event.t -> report option
(** Feed one event.  Returns the report when this event first triggers a
    violation; afterwards the monitor keeps accepting events (statistics
    continue) but the underlying checker is frozen. *)

val observe_all : t -> Event.t Seq.t -> report option
(** Feed a whole sequence; stops early at the first violation. *)

val violation : t -> report option
val violated : t -> bool

val stats : t -> stats
(** Thin view over the monitor's {!Cmetrics} registry (one counter
    source of truth); counting is unconditional, independent of
    [Obs.on]. *)

(** [metrics m] is the same counters as a registry snapshot. *)
val metrics : t -> Obs.Snapshot.t
val pp_stats : Format.formatter -> stats -> unit
val report_to_string : report -> string
