(** Last-use index: the event index of each variable's and lock's final
    access.

    A checker holding this oracle can release a variable's entire clock
    state the moment its last access is processed, making peak memory
    proportional to the {e live} variables instead of all of them.  The
    index is noted by the text reader as it scans
    ({!Parser.read_packed}), stored in the binary format's optional footer
    ({!Binfmt}), or derived from a materialized trace ({!of_trace}). *)

type t = {
  vars : int array;
      (** [vars.(x)] is the 0-based index of the last read or write of
          variable [x], or [never] if it is never accessed. *)
  locks : int array;
      (** [locks.(l)] likewise for acquire/release of lock [l]. *)
}

val never : int
(** The sentinel [-1] for "never accessed". *)

val create : vars:int -> locks:int -> t
(** All entries [never]. *)

val note : t -> int -> Event.t -> unit
(** [note t i e] records event [e] at index [i]: accesses overwrite the
    entry, so after a full in-order pass each entry holds the final
    access.  Non-access events are ignored. *)

val of_trace : Trace.t -> t
(** One pass over a materialized trace. *)

val last_var : t -> int -> int
(** Bounds-safe lookup; [never] out of range. *)

val last_lock : t -> int -> int
