(** Common interface of the online atomicity checkers.

    A checker is created for known id domains and then fed events one at a
    time ({e single-pass, streaming}); it reports the first violation of
    conflict serializability and freezes, mirroring the paper's algorithms
    which exit on the first violation. *)

open Traces

module type S = sig
  type t

  val name : string
  (** Human-readable algorithm name, e.g. ["aerodrome"]. *)

  val create : threads:int -> locks:int -> vars:int -> t
  (** Fresh checker state for traces drawing ids from
      [0..threads-1] / [0..locks-1] / [0..vars-1]. *)

  val feed : t -> Event.t -> Violation.t option
  (** Process one event.  Returns [Some v] if this event (or an earlier
      one) triggered a violation; once a violation has been reported the
      checker is frozen and [feed] keeps returning it without processing
      further events. *)

  val feed_packed : t -> int -> Violation.t option
  (** {!feed} over a {!Traces.Packed} word — the zero-allocation entry
      the binary ingestion hot path uses.  Behaviorally identical to
      packing the word's event through [feed]; the shipped checkers
      (AeroDrome and Velodrome alike) dispatch natively on the bit
      slices, boxing the event only for a violation report, while a
      checker may also unpack and delegate. *)

  val violation : t -> Violation.t option
  (** The stored first violation, if any. *)

  val processed : t -> int
  (** Number of events actually processed (violating event included). *)
end

type t = (module S)
(** A checker packaged as a first-class module. *)

val run : (module S) -> Trace.t -> Violation.t option
(** Feed an entire trace to a fresh checker (domain sizes from the trace). *)

val run_events :
  (module S) -> threads:int -> locks:int -> vars:int -> Event.t Seq.t ->
  Violation.t option
(** Streaming variant over an event sequence. *)

val is_serializable : (module S) -> Trace.t -> bool
(** [run] finds no violation. *)

val run_arena :
  (module S) -> threads:int -> locks:int -> vars:int -> Packed.Arena.t ->
  Violation.t option
(** Feed a packed arena through {!S.feed_packed} via a {!Packed.Cursor}. *)
