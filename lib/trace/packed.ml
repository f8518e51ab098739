(* One event in one immediate int.  The packed word mirrors the binfmt
   record — opcode, thread, target id — bit-sliced instead of
   LEB128-encoded, so ingestion can hand the checkers a flat int stream
   with no per-event heap allocation:

     bit 63  62  61 ............. 24  23 ............ 3  2 ... 0
     (sign)  0   target (38 bits)     tid (21 bits)     op

   Bit 62 — the sign bit of a 63-bit OCaml int — stays clear: a 39-bit
   target slice would reach it, making maximal words negative and the
   all-ones word collide with [-1], the end-of-stream sentinel
   ({!Cursor.next}).  With 38 target bits every packed word is
   nonnegative and the sentinel is unambiguous.  Traces whose id
   domains exceed the slice widths (2^21 threads, 2^38 variables/locks)
   cannot be checked; {!fits} is the guard the runner consults. *)

let op_read = 0
let op_write = 1
let op_acquire = 2
let op_release = 3
let op_fork = 4
let op_join = 5
let op_begin = 6
let op_end = 7

let tid_bits = 21
let target_bits = 38
let max_tid = (1 lsl tid_bits) - 1
let max_target = (1 lsl target_bits) - 1
let target_shift = 3 + tid_bits

let [@inline] pack ~op ~tid ~target =
  op lor (tid lsl 3) lor (target lsl target_shift)

let [@inline] opcode w = w land 7
let [@inline] tid w = (w lsr 3) land max_tid
let [@inline] target w = w lsr target_shift

let fits ~threads ~locks ~vars =
  threads <= max_tid + 1 && locks <= max_target + 1 && vars <= max_target + 1

let of_event (e : Event.t) =
  let t = Ids.Tid.to_int e.thread in
  match e.op with
  | Event.Read x -> pack ~op:op_read ~tid:t ~target:(Ids.Vid.to_int x)
  | Event.Write x -> pack ~op:op_write ~tid:t ~target:(Ids.Vid.to_int x)
  | Event.Acquire l -> pack ~op:op_acquire ~tid:t ~target:(Ids.Lid.to_int l)
  | Event.Release l -> pack ~op:op_release ~tid:t ~target:(Ids.Lid.to_int l)
  | Event.Fork u -> pack ~op:op_fork ~tid:t ~target:(Ids.Tid.to_int u)
  | Event.Join u -> pack ~op:op_join ~tid:t ~target:(Ids.Tid.to_int u)
  | Event.Begin -> pack ~op:op_begin ~tid:t ~target:0
  | Event.End -> pack ~op:op_end ~tid:t ~target:0

let to_event w =
  let t = tid w and d = target w in
  let op = opcode w in
  if op = op_read then Event.read t d
  else if op = op_write then Event.write t d
  else if op = op_acquire then Event.acquire t d
  else if op = op_release then Event.release t d
  else if op = op_fork then Event.fork t d
  else if op = op_join then Event.join t d
  else if op = op_begin then Event.begin_ t
  else Event.end_ t

type chunk = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let make_chunk words : chunk =
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout words

(* Growable flat event store: a list of fixed-size Bigarray chunks.
   Growth never copies event words (a new chunk is appended, existing
   chunks are untouched), chunks are off the OCaml heap (the GC scans
   one custom block per chunk, not one box per event), and a full chunk
   is immutable from the producer's side — safe to hand to a consumer
   domain as a batch. *)
module Arena = struct
  type nonrec chunk = chunk

  type t = {
    chunk_words : int;  (* power of two *)
    shift : int;
    mask : int;
    mutable chunks : chunk array;  (* chunks.(0 .. nchunks-1) in use *)
    mutable nchunks : int;
    mutable fill : int;  (* words used in the last chunk *)
  }

  let default_chunk_words = 1 lsl 16

  let create ?(chunk_words = default_chunk_words) () =
    let rec pow2 n = if n >= chunk_words then n else pow2 (2 * n) in
    let cw = pow2 1 in
    let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
    {
      chunk_words = cw;
      shift = log2 cw;
      mask = cw - 1;
      chunks = [| make_chunk cw |];
      nchunks = 1;
      fill = 0;
    }

  let chunk_words t = t.chunk_words
  let length t = ((t.nchunks - 1) * t.chunk_words) + t.fill

  (* words of Bigarray storage held (capacity, not fill) *)
  let capacity_words t = t.nchunks * t.chunk_words

  let grow t =
    if t.nchunks = Array.length t.chunks then begin
      let a = Array.make (2 * t.nchunks) t.chunks.(0) in
      Array.blit t.chunks 0 a 0 t.nchunks;
      t.chunks <- a
    end;
    t.chunks.(t.nchunks) <- make_chunk t.chunk_words;
    t.nchunks <- t.nchunks + 1;
    t.fill <- 0

  let [@inline] push t w =
    if t.fill = t.chunk_words then grow t;
    Bigarray.Array1.unsafe_set t.chunks.(t.nchunks - 1) t.fill w;
    t.fill <- t.fill + 1

  (* Hand [write] the free tail of the last chunk (a fresh chunk when it
     is full): [write c off room] stores up to [room] words from [off]
     and returns how many it stored.  A block decoder fills chunks in
     place this way, with no call per word. *)
  let fill t write =
    if t.fill = t.chunk_words then grow t;
    let k = write t.chunks.(t.nchunks - 1) t.fill (t.chunk_words - t.fill) in
    t.fill <- t.fill + k;
    k

  let get t i =
    if i < 0 || i >= length t then invalid_arg "Packed.Arena.get";
    Bigarray.Array1.unsafe_get t.chunks.(i lsr t.shift) (i land t.mask)

  let iter_chunks t f =
    for c = 0 to t.nchunks - 2 do
      f t.chunks.(c) t.chunk_words
    done;
    if t.fill > 0 then f t.chunks.(t.nchunks - 1) t.fill

  let iter t f =
    iter_chunks t (fun c len ->
        for i = 0 to len - 1 do
          f (Bigarray.Array1.unsafe_get c i)
        done)

  (* Words [start, stop) in order, chunk-wise: the per-word cost is one
     unsafe Bigarray read, no division.  The shard tasks walk disjoint
     ranges of a fully built (hence immutable) arena concurrently. *)
  let iter_range t start stop f =
    if start < 0 || stop > length t || start > stop then
      invalid_arg "Packed.Arena.iter_range";
    let ci = ref (start lsr t.shift) in
    let pos = ref (start land t.mask) in
    let remaining = ref (stop - start) in
    while !remaining > 0 do
      let chunk = t.chunks.(!ci) in
      let take = min !remaining (t.chunk_words - !pos) in
      for i = !pos to !pos + take - 1 do
        f (Bigarray.Array1.unsafe_get chunk i)
      done;
      remaining := !remaining - take;
      incr ci;
      pos := 0
    done
end

module Cursor = struct
  type t = {
    a : Arena.t;
    mutable ci : int;  (* current chunk *)
    mutable pos : int;  (* next word within it *)
  }

  let of_arena a = { a; ci = 0; pos = 0 }

  let rec next c =
    let a = c.a in
    let last = a.Arena.nchunks - 1 in
    let len = if c.ci = last then a.Arena.fill else a.Arena.chunk_words in
    if c.pos < len then begin
      let w = Bigarray.Array1.unsafe_get a.Arena.chunks.(c.ci) c.pos in
      c.pos <- c.pos + 1;
      w
    end
    else if c.ci < last then begin
      c.ci <- c.ci + 1;
      c.pos <- 0;
      next c
    end
    else -1
end
