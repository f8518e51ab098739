(** Whole-trace accessor statistics for variables and locks.

    For each variable: the set of threads that access it (as a bitmask)
    and how many write events it receives; for each lock: the set of
    threads that acquire or release it.  These are exactly the facts the
    {!Prefilter} needs to decide, soundly and per event, whether an
    access can ever contribute a cross-thread conflict edge.

    Statistics are gathered in one cheap pass — over a materialized
    trace ({!of_trace}), by the text reader as it scans, or
    while scanning a binary file — and persisted in the binfmt v3
    footer so later runs skip the pass entirely.

    Thread ids at or above {!mask_width} cannot be given their own bit;
    they all fold into a shared overflow bit, which makes the
    single-threaded tests report [false] for any object such a thread
    touches.  That direction is conservative: the prefilter merely
    keeps events it could otherwise have dropped. *)

type t

val mask_width : int
(** Number of thread ids with a dedicated mask bit (62; higher ids share
    the overflow bit). *)

val create : vars:int -> locks:int -> t
(** Empty statistics; the arrays grow on demand as {!note} sees larger
    ids, so the initial sizes are only a hint. *)

val note : t -> Event.t -> unit
(** Record one event.  Fork/join/begin/end do not touch any variable or
    lock and are ignored. *)

val note_packed : t -> int -> unit
(** {!note} for a {!Packed} word. *)

val of_trace : Trace.t -> t

val of_arrays :
  var_mask:int array -> var_writes:int array -> lock_mask:int array -> t
(** Rebuild statistics from decoded footer arrays (takes ownership). *)

val vars : t -> int
(** Number of variable slots with recorded data. *)

val locks : t -> int

val var_mask : t -> int -> int
(** Accessor-thread bitmask of variable [x]; 0 when never accessed or
    out of range. *)

val var_writes : t -> int -> int
(** Number of write events to variable [x]. *)

val lock_mask : t -> int -> int

val var_single_threaded : t -> int -> bool
(** True when the variable is accessed by exactly one thread whose id is
    below {!mask_width}.  Never true for untouched variables. *)

val var_read_only : t -> int -> bool
(** True when the variable is accessed but never written. *)

val lock_single_threaded : t -> int -> bool
(** True when the lock is only ever acquired/released by one thread. *)
