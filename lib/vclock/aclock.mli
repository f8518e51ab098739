(** Adaptive vector clocks: an epoch scalar while single-writer, a full
    vector after a cross-thread join.

    An [Aclock.t] denotes exactly the same mathematical vector time as a
    {!Vector_clock.t}; only the representation adapts.  A clock whose
    value is [⊥\[c/t\]] — zero everywhere except component [t] — is kept
    as the epoch [c@@t], one immediate [int] with the clock above the low
    20 bits and the thread id in them, so the overwhelmingly common
    single-writer operations (thread-local reads and writes, re-acquires,
    own-transaction updates) cost O(1) and allocate nothing.  The first
    operation whose result is not epoch-shaped {e inflates} the clock to a
    plain [int array] of dimension [dim]; inflation is permanent and the
    array is reused thereafter.

    Every operation computes the same value the eager {!Vector_clock}
    code would; [test/test_vclock.ml] checks this by differential
    property testing, and the checkers' verdicts are bit-for-bit
    unchanged.  See DESIGN.md, section "Clock representations". *)

type t

val create : int -> t
(** [create dim] is [⊥] of dimension [dim], in epoch form.
    @raise Invalid_argument if [dim < 0]. *)

val bottom : int -> t
(** Alias for {!create}. *)

val unit : int -> int -> t
(** [unit dim t] is [⊥\[1/t\]] in epoch form: the initial thread clock.
    @raise Invalid_argument unless [0 <= t < dim] and [t < 2{^20}]. *)

val dim : t -> int

val is_flat : t -> bool
(** True while the clock is in epoch form. *)

val flat_owner : t -> int
(** The epoch's thread id while flat, [-1] once inflated.  While flat,
    every component other than [flat_owner] is zero — callers use this to
    collapse O(threads) scans to a single-component check. *)

val get : t -> int -> int
(** O(1) in both representations. *)

val unsafe_get : t -> int -> int
(** {!get} without the bounds check; the index must be in [0..dim-1].
    For the checkers' per-event hot loops. *)

val set : t -> int -> int -> unit
val bump : t -> int -> unit

val join_into : into:t -> t -> unit
(** [into := into ⊔ v], O(1) whenever [v] is flat.  Inflates [into] only
    when the result is not epoch-shaped. *)

val join_into_grew : into:t -> t -> bool
(** Like {!join_into}, additionally reporting whether [into] changed —
    the checkers use this to invalidate caches keyed on a clock's
    value. *)

val join_into_zeroed : into:t -> t -> int -> unit
(** [into := into ⊔ v\[0/z\]]; a no-op when [v] is flat and owned by [z]
    (the read-own-write fast path of the checkers' [hR_x] updates). *)

val assign : into:t -> t -> unit
(** Copy [v]'s value; O(1) when [v] is flat. *)

val assign_zeroed : into:t -> t -> int -> unit
val copy : t -> t

val leq : t -> t -> bool
(** Pointwise order; O(1) whenever the left clock is flat. *)

val equal : t -> t -> bool
val equal_except : t -> t -> int -> bool
val is_bottom : t -> bool

val reset : t -> unit
(** Back to [⊥] (and back to epoch form). *)

val to_list : t -> int list
val of_list : int list -> t
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Recycling arena for per-variable clocks.

    A checker that releases a dead variable's clocks here instead of
    dropping them turns its steady-state allocation rate into pool
    traffic: [alloc] pops a previously released clock (a {e hit}) and
    only falls back to a fresh record on an empty pool (a {e miss}).
    Released clocks keep their inflated vector inside the record, so a
    recycled clock re-inflates without allocating.  [collapse] is the
    demotion path for streaming mode: it returns a clock whose value is
    epoch-shaped to the packed representation and reclaims its vector
    (bounded stash, reused by later inflations).

    Pools are single-domain, like the checkers that own them. *)
module Pool : sig
  type clock := t

  type t

  val create : int -> t
  (** [create dim] recycles clocks of dimension [dim] only. *)

  val dim : t -> int

  val alloc : t -> clock
  (** A [⊥] clock of the pool's dimension, recycled when possible. *)

  val release : t -> clock -> unit
  (** Reset the clock to [⊥] and make it available to [alloc].  The
      caller must not use the clock afterwards.
      @raise Invalid_argument on dimension mismatch. *)

  val collapse : t -> clock -> bool
  (** Shrink the clock's representation without changing its value:
      an inflated clock whose value is epoch-shaped returns to epoch
      form (counted as a demotion), and an epoch-form clock dragging a
      stale vector from an earlier inflation drops it.  The freed array
      feeds later inflations.  Returns whether anything shrank. *)

  val hits : t -> int

  val misses : t -> int

  val released : t -> int

  val collapsed : t -> int

  val in_pool : t -> int
  (** Clocks currently available to [alloc]. *)
end
