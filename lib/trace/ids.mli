(** Dense integer identifiers for threads, locks and memory locations.

    Every checker in this repository indexes its per-thread, per-lock and
    per-variable state by dense integers [0 .. n-1], matching the paper's
    assumption of a bounded number of threads, locks and variables.  The
    three id namespaces are kept distinct at the type level so a lock id
    cannot be passed where a thread id is expected. *)

module type ID = sig
  type t = private int

  val of_int : int -> t
  (** @raise Invalid_argument on negative input. *)

  val to_int : t -> int
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val hash : t -> int

  val pp : Format.formatter -> t -> unit
  (** Prints with the namespace prefix, e.g. [T3], [L0], [V17]. *)

  val to_string : t -> string
end

module Tid : ID
(** Thread identifiers. *)

module Lid : ID
(** Lock identifiers. *)

module Vid : ID
(** Memory-location (variable) identifiers. *)

module Interner : sig
  (** Order-preserving string interner: the [k]-th distinct string ever
      interned receives id [k].  Used by the trace parser to map symbolic
      names to dense ids. *)

  type t

  val create : unit -> t

  val intern : t -> string -> int
  (** Id of [name], allocating the next dense id on first sight. *)

  val intern_sub : t -> Bytes.t -> int -> int -> int
  (** [intern_sub t b pos len] is [intern t (Bytes.sub_string b pos len)],
      but allocates only on a name's first sight: a known name is found by
      hashing and comparing the bytes in place. *)

  val find : t -> string -> int option
  (** Id of [name] if already interned. *)

  val name : t -> int -> string
  (** Inverse of {!intern}.  @raise Invalid_argument if out of range. *)

  val count : t -> int
  (** Number of distinct names interned so far. *)

  val names : t -> string array
  (** All names, indexed by id. *)
end
