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

  val feed_packed : t -> int -> Violation.t option
  (** Process one event, given as a {!Traces.Packed} word.  Returns
      [Some v] if this event (or an earlier one) triggered a violation;
      once a violation has been reported the checker is frozen and
      [feed_packed] keeps returning it without processing further
      events.  The shipped checkers (AeroDrome and Velodrome alike)
      dispatch on the word's bit slices and box the event only for a
      violation report; the seed reference copies in the tests unpack
      the word and run their boxed handlers. *)

  val violation : t -> Violation.t option
  (** The stored first violation, if any. *)

  val processed : t -> int
  (** Number of events actually processed (violating event included). *)
end

type t = (module S)
(** A checker packaged as a first-class module. *)

val run_arena :
  (module S) -> threads:int -> locks:int -> vars:int -> Packed.Arena.t ->
  Violation.t option
(** Feed a packed arena through {!S.feed_packed} via a {!Packed.Cursor}. *)

val run : (module S) -> Trace.t -> Violation.t option
(** Feed an entire trace, each event packed in turn, through
    {!S.feed_packed} of a fresh checker (domain sizes from the trace).
    @raise Invalid_argument when the domains fail {!Packed.fits}. *)
