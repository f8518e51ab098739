(* Small integer sets over a fixed universe [0..n-1] with O(1) amortized
   add/remove/clear: a push-only member array plus a byte map.  [remove]
   only clears the membership byte (lazy deletion); the stale array entry
   is swept by the next [drain] or [clear], so no operation ever scans the
   member list looking for one element.  When removals leave the member
   array more than half dead, or an add finds it full and more than half
   dead, it is compacted in place (preserving insertion order, so [drain]
   sequences are unaffected) — without this a long-lived set that keeps a
   few live members through many add/remove cycles would re-scan its dead
   entries at every drain forever, or double its array for them. *)

type t = {
  mutable elems : int array;
  mutable n : int;
  mutable live : int; (* exact member count; n over-approximates it *)
  mem : Bytes.t;
}

let compact_min = 16

let create n =
  { elems = Array.make 16 0; n = 0; live = 0; mem = Bytes.make (max n 1) '\000' }

let [@inline] mem s i = Bytes.unsafe_get s.mem i <> '\000'
let size s = s.live

(* Keep each member once, at its first entry, in order at the front:
   [drain] visits exactly these, in this order, before and after.  A
   kept member's byte is 2 until the sweep ends, so later duplicates of
   it (left by a remove and re-add) are dropped too. *)
let compact s =
  let k = ref 0 in
  for j = 0 to s.n - 1 do
    let i = Array.unsafe_get s.elems j in
    if Bytes.unsafe_get s.mem i = '\001' then begin
      Bytes.unsafe_set s.mem i '\002';
      Array.unsafe_set s.elems !k i;
      incr k
    end
  done;
  for j = 0 to !k - 1 do
    Bytes.unsafe_set s.mem (Array.unsafe_get s.elems j) '\001'
  done;
  s.n <- !k

(* A full array more than half dead is compacted rather than doubled, so
   its length stays within [max 16 (4 * size)]. *)
let make_room s =
  if 2 * s.live < s.n then compact s
  else begin
    let bigger = Array.make (2 * s.n) 0 in
    Array.blit s.elems 0 bigger 0 s.n;
    s.elems <- bigger
  end

let [@inline] push s i =
  if s.n = Array.length s.elems then make_room s;
  Array.unsafe_set s.elems s.n i;
  s.n <- s.n + 1

let [@inline] add s i =
  if not (mem s i) then begin
    Bytes.unsafe_set s.mem i '\001';
    s.live <- s.live + 1;
    push s i
  end

let [@inline] remove s i =
  if mem s i then begin
    Bytes.unsafe_set s.mem i '\000';
    s.live <- s.live - 1;
    if s.n >= compact_min && 2 * s.live < s.n then compact s
  end

(* Iterate the members and leave the set empty; entries invalidated by
   [remove] (and duplicates they enable) are skipped.  [f] gets [a] and
   [b] passed through, so a closed function needs no closure per call.
   [f] must not add to the set being drained (the checkers only ever add
   to *other* threads' sets from inside a drain). *)
let drain f a b s =
  let n = s.n in
  s.n <- 0;
  for k = 0 to n - 1 do
    let i = Array.unsafe_get s.elems k in
    if mem s i then begin
      Bytes.unsafe_set s.mem i '\000';
      s.live <- s.live - 1;
      f a b i
    end
  done

let clear s = drain (fun () () _ -> ()) () () s

let raw_length s = s.n
let raw_capacity s = Array.length s.elems
