(** Flat packed event representation for the ingestion hot path.

    One event is one immediate OCaml int — opcode, thread id and target
    id bit-sliced into a single nonnegative word:

    {v
    bit 63  62  61 ............. 24  23 ............ 3  2 ... 0
    (sign)  0   target (38 bits)     tid (21 bits)     op
    v}

    Bit 62 (the sign bit of a 63-bit int) stays clear, so every packed
    word is nonnegative and [-1] is an unambiguous end-of-stream
    sentinel.

    Decoding binfmt straight into packed words ({!Binfmt.fold_packed})
    and feeding them to a checker's [feed_packed] entry — the only event
    entry a checker has — removes every per-event heap allocation
    between the file and the vector-clock work.  The seed reference
    checkers in the tests unpack each word to a boxed {!Event.t}, so
    the verdicts and reports are differential-tested against them.

    Packed words are nonnegative, so [-1] serves as the end-of-stream
    sentinel ({!Cursor.next}).  Traces whose id domains exceed the slice
    widths cannot be checked — {!fits} is the guard the readers and
    runners apply. *)

(** {1 Opcodes}

    Identical to the binfmt record opcodes. *)

val op_read : int
val op_write : int
val op_acquire : int
val op_release : int
val op_fork : int
val op_join : int
val op_begin : int
val op_end : int

(** {1 Word codec} *)

val max_tid : int
(** Largest encodable thread id, [2^21 - 1]. *)

val max_target : int
(** Largest encodable variable/lock/thread target id, [2^38 - 1]. *)

val target_shift : int
(** Bit position of the target slice (the layout constant callers on the
    decode hot path use to assemble words without a {!pack} call). *)

val fits : threads:int -> locks:int -> vars:int -> bool
(** Do id domains of these sizes pack losslessly? *)

val pack : op:int -> tid:int -> target:int -> int
(** Assemble a word.  Ids must be within {!max_tid}/{!max_target} and
    [op] within [0..7]; out-of-range values silently corrupt the word
    (the binary reader range-checks before packing). *)

val opcode : int -> int
val tid : int -> int
val target : int -> int

val of_event : Event.t -> int
(** Pack a boxed event ([Begin]/[End] get target 0).  The event's ids
    must satisfy {!fits}. *)

val to_event : int -> Event.t
(** Materialize the boxed event (allocates; the packed hot paths only
    call this at a violation or when bridging to a boxed-only
    consumer). *)

type chunk = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A fixed-size block of packed words, off the OCaml heap.  A full
    chunk is immutable and may be read from another domain (sharded
    checking hands arena ranges to worker domains). *)

(** Growable flat event store: appended chunks, never copied. *)
module Arena : sig
  type nonrec chunk = chunk

  type t

  val create : ?chunk_words:int -> unit -> t
  (** [chunk_words] (default [65536]) is rounded up to a power of two. *)

  val chunk_words : t -> int
  val push : t -> int -> unit
  val length : t -> int

  val fill : t -> (chunk -> int -> int -> int) -> int
  (** [fill t write] appends words in place: [write c off room] stores
      up to [room >= 1] words into [c] from index [off] and returns how
      many it stored, which [fill] returns too.  [c] is the last chunk,
      or a fresh one when the last is full. *)

  val capacity_words : t -> int
  (** Words of chunk storage held (≥ {!length}). *)

  val get : t -> int -> int
  (** Random access; [Invalid_argument] out of range. *)

  val iter : t -> (int -> unit) -> unit

  val iter_chunks : t -> (chunk -> int -> unit) -> unit
  (** Chunks in order with their filled lengths; only the final chunk
      may be partially filled. *)

  val iter_range : t -> int -> int -> (int -> unit) -> unit
  (** [iter_range t start stop f] applies [f] to the words of
      [start .. stop-1] in order.  Disjoint ranges of a fully built
      arena may be walked from different domains concurrently (the
      sharded checker's chunk batches).  [Invalid_argument] when the
      range is out of bounds. *)
end

(** Sequential reader over an arena. *)
module Cursor : sig
  type t

  val of_arena : Arena.t -> t

  val next : t -> int
  (** The next packed word, or [-1] at end of stream. *)
end
