open Ids

exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

(* Version 1 files are a header and event records and nothing else; the
   reader decodes until EOF.  Version 2 appends a last-use footer after
   the records: one varint per variable then per lock (1 + the index of
   its final access, 0 = never accessed), an 8-byte little-endian length
   of that varint section, and a trailing magic.  The length + magic
   tail lets {!read_last_use} locate the footer by seeking from the end
   without touching the event section.  Version 3 extends the varint
   section with accessor statistics — per variable an accessor-thread
   bitmask and a write count, per lock an accessor-thread bitmask —
   after the last-use entries; the length field covers both, so the
   seek-from-EOF trick is unchanged and v1/v2 files stay readable. *)
let magic = "AERODRM1"
let magic_v2 = "AERODRM2"
let magic_v3 = "AERODRM3"
let footer_magic = "AERODRMF"

type header = {
  threads : int;
  locks : int;
  vars : int;
  events : int;
  version : int;
  last_use : bool;
  stats : bool;
}

(* LEB128 of all 63 bits of [n], read as unsigned: an accessor mask
   with the overflow bit (bit 62, {!Varstats.mask_width}) set is a
   negative int, and takes nine bytes — [get_uint] reads it back. *)
let rec put_bits buf n =
  if n land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr n)
  else begin
    Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
    put_bits buf (n lsr 7)
  end

(* LEB128, unsigned; ids and counts are never negative. *)
let put_uint buf n =
  if n < 0 then invalid_arg "Binfmt: negative id";
  put_bits buf n

let get_uint next =
  let rec go shift acc =
    if shift > 56 then corrupt "id overflow";
    match next () with
    | -1 -> corrupt "truncated integer"
    | b ->
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

(* opcodes — the packed word codec uses the record opcodes verbatim, so
   there is a single definition *)
let op_read = Packed.op_read
and op_write = Packed.op_write
and op_acquire = Packed.op_acquire
and op_release = Packed.op_release
and op_fork = Packed.op_fork
and op_join = Packed.op_join
and op_begin = Packed.op_begin
and op_end = Packed.op_end

let encode_event buf (e : Event.t) =
  let t = Tid.to_int e.thread in
  let simple op = Buffer.add_char buf (Char.chr op) in
  match e.op with
  | Event.Read x ->
    simple op_read;
    put_uint buf t;
    put_uint buf (Vid.to_int x)
  | Event.Write x ->
    simple op_write;
    put_uint buf t;
    put_uint buf (Vid.to_int x)
  | Event.Acquire l ->
    simple op_acquire;
    put_uint buf t;
    put_uint buf (Lid.to_int l)
  | Event.Release l ->
    simple op_release;
    put_uint buf t;
    put_uint buf (Lid.to_int l)
  | Event.Fork u ->
    simple op_fork;
    put_uint buf t;
    put_uint buf (Tid.to_int u)
  | Event.Join u ->
    simple op_join;
    put_uint buf t;
    put_uint buf (Tid.to_int u)
  | Event.Begin ->
    simple op_begin;
    put_uint buf t
  | Event.End ->
    simple op_end;
    put_uint buf t

let add_u64_le buf n =
  for k = 0 to 7 do
    Buffer.add_char buf (Char.chr ((n lsr (8 * k)) land 0xff))
  done

let write_channel ?(last_use = true) ?(stats = true) oc tr =
  let stats = last_use && stats in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf
    (if stats then magic_v3 else if last_use then magic_v2 else magic);
  put_uint buf (Trace.threads tr);
  put_uint buf (Trace.locks tr);
  put_uint buf (Trace.vars tr);
  put_uint buf (Trace.length tr);
  let lt =
    if last_use then
      Some (Lifetime.create ~vars:(Trace.vars tr) ~locks:(Trace.locks tr))
    else None
  in
  let vs =
    if stats then Some (Varstats.create ~vars:(Trace.vars tr) ~locks:(Trace.locks tr))
    else None
  in
  let i = ref 0 in
  Trace.iter
    (fun e ->
      (match lt with Some lt -> Lifetime.note lt !i e | None -> ());
      (match vs with Some vs -> Varstats.note vs e | None -> ());
      incr i;
      encode_event buf e;
      if Buffer.length buf > 60000 then begin
        Buffer.output_buffer oc buf;
        Buffer.clear buf
      end)
    tr;
  (match lt with
  | None -> ()
  | Some lt ->
    let fb = Buffer.create 4096 in
    Array.iter (fun i -> put_uint fb (i + 1)) lt.Lifetime.vars;
    Array.iter (fun i -> put_uint fb (i + 1)) lt.Lifetime.locks;
    (match vs with
    | None -> ()
    | Some vs ->
      for x = 0 to Trace.vars tr - 1 do
        put_bits fb (Varstats.var_mask vs x);
        put_uint fb (Varstats.var_writes vs x)
      done;
      for l = 0 to Trace.locks tr - 1 do
        put_bits fb (Varstats.lock_mask vs l)
      done);
    Buffer.add_buffer buf fb;
    add_u64_le buf (Buffer.length fb);
    Buffer.add_string buf footer_magic);
  Buffer.output_buffer oc buf

let write_file ?last_use ?stats path tr =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> write_channel ?last_use ?stats oc tr)

let channel_next ic () = try input_byte ic with End_of_file -> -1

(* Process-wide ingestion counters (files fanned out over the scheduler
   decode on worker domains, hence atomic).  Updated in bulk per file so
   the per-event decode loop stays branch-free; the bytes are the whole
   mapped file. *)
let events_decoded =
  Obs.Registry.shared_counter Obs.Registry.global "ingest.binary.events_decoded"

let bytes_read =
  Obs.Registry.shared_counter Obs.Registry.global "ingest.binary.bytes_read"

(* The header from its magic [m] and the byte source after it; a
   varint cut short or overlong is a truncated header. *)
let header_of path m next =
  let version =
    if m = magic then 1
    else if m = magic_v2 then 2
    else if m = magic_v3 then 3
    else corrupt "%s: bad magic (not a binary trace)" path
  in
  try
    let threads = get_uint next in
    let locks = get_uint next in
    let vars = get_uint next in
    let events = get_uint next in
    {
      threads;
      locks;
      vars;
      events;
      version;
      last_use = version >= 2;
      stats = version >= 3;
    }
  with Corrupt _ -> corrupt "%s: truncated header" path

let read_header_ic path ic =
  match really_input_string ic (String.length magic) with
  | exception End_of_file -> corrupt "%s: truncated header" path
  | m -> header_of path m (channel_next ic)

let with_file path f =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)

(* Plausibility of the declared counts against the bytes actually in
   the file, checked before any count-proportional allocation: an event
   record is at least 2 bytes (opcode + tid) and a footer entry at
   least 1 byte, so a hostile header declaring an astronomic [events]
   or [vars]/[locks] is rejected as corrupt up front instead of sizing
   builders and footer arrays to it. *)
let check_header_size path header ~remaining =
  if header.events > remaining / 2 then
    corrupt "%s: declared event count %d exceeds file size" path header.events;
  if
    header.last_use
    && (header.vars > remaining || header.locks > remaining
       || header.vars + header.locks > remaining)
  then corrupt "%s: declared id domains exceed file size" path

let read_header path = with_file path (read_header_ic path)

let is_binary path =
  try
    with_file path (fun ic ->
        in_channel_length ic >= String.length magic
        &&
        let m = really_input_string ic (String.length magic) in
        m = magic || m = magic_v2 || m = magic_v3)
  with _ -> false

(* --- zero-copy packed ingestion ---

   [fold_packed] is the one event decoder: the file is mmapped
   ([Unix.map_file]) and records are decoded in place from the mapping
   into packed words ({!Packed}) — no read syscalls past the page cache
   and no per-event heap allocation between the file and the checker.
   A FIFO, [/dev/null] or an empty file maps as 0 bytes and fails the
   header check; a piped stream never gets here, since {!is_binary}
   cannot size it. *)

type bigbytes =
  (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* An unopenable file raises [Sys_error] as [open_in_bin] would. *)
let map_file path : bigbytes =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (e, _, _) ->
    raise (Sys_error (path ^ ": " ^ Unix.error_message e))
  | fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        match
          Unix.map_file fd Bigarray.int8_unsigned Bigarray.c_layout false [| -1 |]
        with
        | g -> Bigarray.array1_of_genarray g
        | exception Unix.Unix_error (e, _, _) ->
          corrupt "%s: cannot map file (%s)" path (Unix.error_message e))

type bsrc = { bb : bigbytes; blen : int; mutable bpos : int }

let bsrc_next s () =
  if s.bpos >= s.blen then -1
  else begin
    let v = Bigarray.Array1.unsafe_get s.bb s.bpos in
    s.bpos <- s.bpos + 1;
    v
  end

let header_of_bsrc path s =
  let mlen = String.length magic in
  if s.blen < mlen then corrupt "%s: truncated header" path;
  let m = String.init mlen (fun i -> Char.chr (Bigarray.Array1.get s.bb i)) in
  s.bpos <- mlen;
  let header = header_of path m (bsrc_next s) in
  check_header_size path header ~remaining:(s.blen - s.bpos);
  header

(* --- footer decoding ---

   The footer is decoded by index from the file's mapping, by one
   decoder for both readers: [fold_packed] validates it after the last
   record, and [read_footer] seeks to it from the end.  A section the
   caller does not want is still walked varint by varint — every entry
   is counted against the length field and every last-use index is
   range-checked — but nothing is allocated for it. *)

(* One footer varint at [!pos], below [limit]; cut short or overlong
   is a truncated footer. *)
let rec footer_uint (bb : bigbytes) path limit pos shift acc =
  if shift > 56 || !pos >= limit then corrupt "%s: truncated footer" path
  else begin
    let b = Bigarray.Array1.unsafe_get bb !pos in
    incr pos;
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else footer_uint bb path limit pos (shift + 7) acc
  end

(* A last-use section of [n] entries for [what]s, kept with [keep]. *)
let last_use_section bb path header limit pos what n ~keep =
  let a = Array.make (if keep then max n 0 else 0) Lifetime.never in
  for i = 0 to n - 1 do
    let v = footer_uint bb path limit pos 0 0 in
    if v > header.events then
      corrupt "%s: last-use index out of range for %s %d" path what i;
    if keep then Array.unsafe_set a i (v - 1)
  done;
  a

(* The footer entries from [pos] (last-use, then the v3 accessor
   statistics), each returned only when asked for; [pos] ends past the
   last entry. *)
let decode_footer bb path header ~limit pos ~last_use ~stats =
  let section what n = last_use_section bb path header limit pos what n ~keep:last_use in
  let vars = section "variable" header.vars in
  let locks = section "lock" header.locks in
  let lt = if last_use then Some { Lifetime.vars; locks } else None in
  let vs =
    if not header.stats then None
    else if not stats then begin
      for _ = 1 to (2 * max header.vars 0) + max header.locks 0 do
        ignore (footer_uint bb path limit pos 0 0)
      done;
      None
    end
    else begin
      let entry () = footer_uint bb path limit pos 0 0 in
      let nvars = max header.vars 0 in
      let var_mask = Array.make (max nvars 1) 0 in
      let var_writes = Array.make (max nvars 1) 0 in
      for x = 0 to nvars - 1 do
        var_mask.(x) <- entry ();
        var_writes.(x) <- entry ()
      done;
      let nlocks = max header.locks 0 in
      let lock_mask = Array.make (max nlocks 1) 0 in
      for l = 0 to nlocks - 1 do
        lock_mask.(l) <- entry ()
      done;
      Some (Varstats.of_arrays ~var_mask ~var_writes ~lock_mask)
    end
  in
  (lt, vs)

(* The 8-byte little-endian footer length at [pos], below [limit]. *)
let footer_length (bb : bigbytes) path limit pos =
  let v = ref 0 in
  for k = 0 to 7 do
    if pos + k >= limit then corrupt "%s: truncated footer" path;
    v := !v lor (Bigarray.Array1.unsafe_get bb (pos + k) lsl (8 * k))
  done;
  !v

(* The trailing magic at [pos], below [limit]. *)
let check_footer_magic (bb : bigbytes) path limit pos =
  String.iteri
    (fun k c ->
      if pos + k >= limit then corrupt "%s: truncated footer" path;
      if Char.chr (Bigarray.Array1.unsafe_get bb (pos + k)) <> c then
        corrupt "%s: bad footer magic" path)
    footer_magic

(* Validate the footer that must follow the last event record of a
   v2/v3 file, at [s.bpos]: entries, length, trailing magic, nothing
   after.  Any truncation raises [Corrupt], so a file cut anywhere is
   rejected even by readers that do not use the index. *)
let check_footer_tail path header s =
  let bb = s.bb and len = s.blen in
  let start = s.bpos in
  let pos = ref start in
  ignore (decode_footer bb path header ~limit:len pos ~last_use:false ~stats:false);
  let flen = footer_length bb path len !pos in
  if flen <> !pos - start then corrupt "%s: footer length mismatch" path;
  let m = !pos + 8 in
  check_footer_magic bb path len m;
  if m + String.length footer_magic < len then
    corrupt "%s: trailing garbage after footer" path

let read_footer ?(last_use = true) ?(stats = true) path =
  let bb = map_file path in
  let s = { bb; blen = Bigarray.Array1.dim bb; bpos = 0 } in
  let header = header_of_bsrc path s in
  if not header.last_use then (None, None)
  else begin
    let hdr_end = s.bpos and total = s.blen in
    let tail = 8 + String.length footer_magic in
    if total - hdr_end < tail then corrupt "%s: truncated footer" path;
    let flen = footer_length bb path total (total - tail) in
    check_footer_magic bb path total (total - String.length footer_magic);
    let start = total - tail - flen in
    if flen < 0 || start < hdr_end then
      corrupt "%s: footer length out of range" path;
    let pos = ref start in
    let found =
      decode_footer bb path header ~limit:(total - tail) pos ~last_use ~stats
    in
    if !pos - start <> flen then corrupt "%s: footer length mismatch" path;
    found
  end

let read_last_use path = fst (read_footer ~stats:false path)
let read_stats path = snd (read_footer ~last_use:false path)

(* The mmap hot loop: LEB128 decoded inline from the mapping with a
   local position, one packed word per record out. *)
let fold_packed_bb path header s ~init ~f =
  let b = s.bb in
  let len = s.blen in
  let pos = ref s.bpos in
  (* the recursion lives at this level, not inside a per-call wrapper —
     a closure built per LEB128 read would put ~14 words of garbage on
     every event of the "zero-copy" path *)
  let rec get_u shift acc =
    if shift > 56 then corrupt "%s: id overflow" path
    else if !pos >= len then corrupt "%s: truncated integer" path
    else begin
      let byte = Bigarray.Array1.unsafe_get b !pos in
      incr pos;
      let acc = acc lor ((byte land 0x7f) lsl shift) in
      if byte land 0x80 = 0 then acc else get_u (shift + 7) acc
    end
  in
  (* one-byte varints are the overwhelmingly common case (thread ids
     almost always, variable ids often); decode them inline and only
     call into the loop for multi-byte encodings *)
  let get_u_fast () =
    if !pos >= len then corrupt "%s: truncated integer" path
    else begin
      let b0 = Bigarray.Array1.unsafe_get b !pos in
      incr pos;
      if b0 < 0x80 then b0 else get_u 7 (b0 land 0x7f)
    end
  in
  let acc = ref init in
  (* the record decode is spelled out in the loop bodies — the word is
     assembled with the codec's shift constants rather than
     [Packed.pack], because without cross-module inlining a function
     call per event here costs ~10% of the whole decode *)
  let n = ref 0 in
  if header.last_use then begin
    while !n < header.events do
      if !pos >= len then
        corrupt "%s: expected %d events, found %d" path header.events !n;
      let op = Bigarray.Array1.unsafe_get b !pos in
      incr pos;
      if op > op_end then corrupt "%s: unknown opcode %d" path op;
      let t = get_u_fast () in
      let d = if op < op_begin then get_u_fast () else 0 in
      if t > Packed.max_tid || d > Packed.max_target then
        corrupt "%s: id exceeds packed range" path;
      acc := f !acc (op lor (t lsl 3) lor (d lsl Packed.target_shift));
      incr n
    done;
    s.bpos <- !pos;
    check_footer_tail path header s
  end
  else begin
    while !pos < len do
      let op = Bigarray.Array1.unsafe_get b !pos in
      incr pos;
      if op > op_end then corrupt "%s: unknown opcode %d" path op;
      let t = get_u_fast () in
      let d = if op < op_begin then get_u_fast () else 0 in
      if t > Packed.max_tid || d > Packed.max_target then
        corrupt "%s: id exceeds packed range" path;
      acc := f !acc (op lor (t lsl 3) lor (d lsl Packed.target_shift));
      incr n
    done;
    if !n <> header.events then
      corrupt "%s: expected %d events, found %d" path header.events !n
  end;
  !acc

let note_ingest_bytes n bytes =
  if Obs.on () then begin
    Obs.Shared_counter.add events_decoded n;
    Obs.Shared_counter.add bytes_read bytes
  end

let fold_packed path ~init ~f =
  let bb = map_file path in
  let s = { bb; blen = Bigarray.Array1.dim bb; bpos = 0 } in
  let header = header_of_bsrc path s in
  let acc = fold_packed_bb path header s ~init ~f in
  note_ingest_bytes header.events s.blen;
  (header, acc)

let read_packed path =
  let a = Packed.Arena.create () in
  let header, () =
    fold_packed path ~init:() ~f:(fun () w -> Packed.Arena.push a w)
  in
  (header, a)

let read_file path =
  let b = Trace.Builder.create () in
  let _, () =
    fold_packed path ~init:() ~f:(fun () w ->
        Trace.Builder.add b (Packed.to_event w))
  in
  Trace.Builder.build b

(* ---- packed-window re-encoding (violation flight recorder) ---- *)

(* Serialize a window of packed words as a stand-alone version-1 file.
   The header keeps the source trace's id domains so thread/lock/var
   ids in the slice stay meaningful, and the event count is the window
   length.  Version 1 deliberately: a slice has no use for last-use or
   accessor footers (it exists to be replayed once, not optimized), and
   v1 is the format every reader path accepts. *)
let write_packed_window path ~threads ~locks ~vars (words : int array) =
  let buf = Buffer.create (min 65536 ((16 * Array.length words) + 64)) in
  Buffer.add_string buf magic;
  put_uint buf threads;
  put_uint buf locks;
  put_uint buf vars;
  put_uint buf (Array.length words);
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Array.iter
        (fun w ->
          let op = Packed.opcode w in
          Buffer.add_char buf (Char.chr op);
          put_uint buf (Packed.tid w);
          if op <> op_begin && op <> op_end then put_uint buf (Packed.target w);
          if Buffer.length buf > 60000 then begin
            Buffer.output_buffer oc buf;
            Buffer.clear buf
          end)
        words;
      Buffer.output_buffer oc buf)
