(** Small integer sets over a fixed universe [0..n-1], built for the
    checkers' update-set traffic: O(1) amortized add/remove, and a
    destructive {!drain} that visits the members in insertion order.

    Removal is lazy (a membership byte is cleared; the member-array entry
    stays until the next drain), but the array is compacted in place once
    more than half its entries are dead, and a full array is compacted
    before it is grown.  A long-lived set cycling through a few members
    never accumulates an unbounded dead tail, and a set that never holds
    more than [k] members never allocates more than [max 16 (4k)]
    entries. *)

type t

val create : int -> t
(** [create n] is the empty set over universe [0..n-1]. *)

val mem : t -> int -> bool

val size : t -> int
(** Exact member count. *)

val add : t -> int -> unit
(** No-op if already a member. *)

val remove : t -> int -> unit
(** No-op if not a member. *)

val drain : ('a -> 'b -> int -> unit) -> 'a -> 'b -> t -> unit
(** [drain f a b s] calls [f a b i] on every member [i] in insertion
    order and leaves [s] empty; passing [a] and [b] through lets a closed
    [f] run without allocating a closure.  [f] must not add to [s] itself
    (adding to other sets is fine). *)

val clear : t -> unit
(** Empty the set. *)

(**/**)

val raw_length : t -> int
(** Member-array length including dead entries — exposed so the unit
    tests can observe the compaction threshold. *)

val raw_capacity : t -> int
(** Allocated member-array length. *)
