module type ID = sig
  type t = private int

  val of_int : int -> t
  val to_int : t -> int
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val hash : t -> int
  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end

module Make (P : sig
  val prefix : string
end) : ID = struct
  type t = int

  let of_int i =
    if i < 0 then invalid_arg (P.prefix ^ " id: negative");
    i

  let to_int i = i
  let equal = Int.equal
  let compare = Int.compare
  let hash i = i
  let pp ppf i = Format.fprintf ppf "%s%d" P.prefix i
  let to_string i = P.prefix ^ string_of_int i
end

module Tid = Make (struct
  let prefix = "T"
end)

module Lid = Make (struct
  let prefix = "L"
end)

module Vid = Make (struct
  let prefix = "V"
end)

module Interner = struct
  (* Open addressing over the names themselves: [slots] holds [id + 1]
     (0 = empty) in a power-of-two table, and [hashes.(id)] caches each
     name's hash.  Lookups hash the bytes in place, so a byte slice of a
     read buffer can be found without building a string ({!intern_sub}). *)
  type t = {
    mutable slots : int array;
    mutable names : string array;
    mutable hashes : int array;
    mutable count : int;
  }

  let create () =
    {
      slots = Array.make 64 0;
      names = Array.make 16 "";
      hashes = Array.make 16 0;
      count = 0;
    }

  (* FNV-1a over [b.[pos .. stop-1]], wrapping at the int width *)
  let rec hash_bytes b i stop h =
    if i = stop then h
    else
      let h = (h lxor Char.code (Bytes.unsafe_get b i)) * 0x100000001b3 in
      hash_bytes b (i + 1) stop h

  let hash_sub b pos len = hash_bytes b pos (pos + len) 0x811c9dc5

  let rec same_bytes name b pos i len =
    i = len
    || String.unsafe_get name i = Bytes.unsafe_get b (pos + i)
       && same_bytes name b pos (i + 1) len

  let rec probe t h b pos len i =
    let k = Array.unsafe_get t.slots i in
    if k = 0 then -1 - i
    else
      let id = k - 1 in
      let name = Array.unsafe_get t.names id in
      if
        Array.unsafe_get t.hashes id = h
        && String.length name = len
        && same_bytes name b pos 0 len
      then id
      else probe t h b pos len ((i + 1) land (Array.length t.slots - 1))

  (* The id of the slice, or [-1 - slot] for the empty slot it would take. *)
  let [@inline] lookup t h b pos len =
    probe t h b pos len (h land (Array.length t.slots - 1))

  let rehash t =
    let slots = Array.make (2 * Array.length t.slots) 0 in
    let mask = Array.length slots - 1 in
    for id = 0 to t.count - 1 do
      let rec place i =
        if slots.(i) = 0 then slots.(i) <- id + 1 else place ((i + 1) land mask)
      in
      place (t.hashes.(id) land mask)
    done;
    t.slots <- slots

  let add t h name slot =
    let id = t.count in
    if id = Array.length t.names then begin
      let grow a = Array.append a (Array.make (Array.length a) (Array.unsafe_get a 0)) in
      t.names <- grow t.names;
      t.hashes <- grow t.hashes
    end;
    t.names.(id) <- name;
    t.hashes.(id) <- h;
    t.slots.(slot) <- id + 1;
    t.count <- id + 1;
    if 2 * t.count > Array.length t.slots then rehash t;
    id

  let intern_sub t b pos len =
    let h = hash_sub b pos len in
    let r = lookup t h b pos len in
    if r >= 0 then r else add t h (Bytes.sub_string b pos len) (-1 - r)

  let intern t name =
    let b = Bytes.unsafe_of_string name in
    let len = String.length name in
    let h = hash_sub b 0 len in
    let r = lookup t h b 0 len in
    if r >= 0 then r else add t h name (-1 - r)

  let find t name =
    let b = Bytes.unsafe_of_string name in
    let len = String.length name in
    let r = lookup t (hash_sub b 0 len) b 0 len in
    if r >= 0 then Some r else None

  let name t id =
    if id < 0 || id >= t.count then invalid_arg "Interner.name: out of range";
    t.names.(id)

  let count t = t.count
  let names t = Array.sub t.names 0 t.count
end
