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

val join_thread : into:t -> t -> int -> int
(** [join_thread ~into:c_t v t] joins [v] into [c_t], the clock of
    thread [t], unless [v]'s seen bit [t] says [c_t] already contains
    [v]; afterwards it notes bit [t].  Returns [1] if [c_t] grew, [0] if
    the join changed nothing and [-1] if it was skipped.  Exact as long
    as the caller's thread clocks only grow: then bit [t] stays true
    until [v]'s value changes, which clears it.  Requires
    [0 <= t < dim]. *)

val seen : t -> int -> bool
(** Bit [t] of the seen mask, a thread bitset of [⌈dim / 62⌉] words:
    the clock of thread [t] was noted to contain this clock's current
    value.  Every operation that changes the value ({!set}, {!bump}, a
    join that grew the clock, {!join_into_zeroed}, {!assign},
    {!assign_zeroed}, {!reset}, {!Pool.release}) clears the mask;
    representation changes ({!Pool.collapse}) keep it. *)

val join_into_zeroed : into:t -> t -> int -> unit
(** [into := into ⊔ v\[0/z\]]; a no-op when [v] is flat and owned by [z]
    (the read-own-write fast path of the checkers' [hR_x] updates). *)

val assign : into:t -> t -> unit
(** Copy [v]'s value; O(1) when [v] is flat. *)

val assign_zeroed : into:t -> t -> int -> unit

val leq : t -> t -> bool
(** Pointwise order; O(1) whenever the left clock is flat. *)

(** {2 Thread bitsets}

    A set of threads is an [int array] of words, thread [u] at bit
    [u mod 62] of word [u / 62]; [⌈n / 62⌉] words hold [n] threads.
    The calls below write their result into an array the caller owns,
    so a per-event loop allocates nothing. *)

val words : int -> int
(** [words n] is [⌈n / 62⌉]. *)

val ntz : int -> int
(** Index of the lowest set bit of a non-zero word whose lowest set bit
    is one of bits [0..61]: a single table lookup. *)

val covers_bits : t -> int array -> int array -> int array -> int -> unit
(** [covers_bits clk own active dst off] writes to
    [dst.(off) .. dst.(off + w - 1)], [w = Array.length active], the
    bitset of the threads [u] in [active] with [own.(u) <= clk(u)]: a
    checker's begin-covers mask, rebuilt in one call.  Requires
    [Array.length own >= dim clk], no bit of [active] at or above
    [dim clk], and [own.(u) > 0] on every bit of [active] (a flat clock
    then covers at most its owner). *)

val geq_bits : t array -> int -> int -> int array -> unit
(** [geq_bits clks t c dst] writes to the first [⌈n / 62⌉] words of
    [dst], [n = Array.length clks], the bitset of the indices [u] with
    [clks.(u)(t) >= c].  Requires [0 <= t < dim] for every clock. *)

val equal : t -> t -> bool
val equal_except : t -> t -> int -> bool

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

  val recycled : t -> int -> unit
  (** [recycled p n] counts [n] hits for clocks the caller reused
      without a round trip through the pool — a checker recycling whole
      per-variable records, clocks included, keeps [hits] and [misses]
      meaning what they would with {!release} and {!alloc}. *)

  val hits : t -> int

  val misses : t -> int

  val collapsed : t -> int
end
