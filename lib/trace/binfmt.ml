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
  if n land lnot 0x7f = 0 then Buffer.add_char buf (Char.unsafe_chr n)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (n land 0x7f)));
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

(* One record: the opcode byte, the thread id and, below [op_begin],
   the target id — no closure and no call out of this module per event,
   since every trace written goes through here. *)
let put_record buf op t d =
  Buffer.add_char buf (Char.unsafe_chr op);
  put_uint buf t;
  if op < op_begin then put_uint buf d

let encode_event buf (e : Event.t) =
  let t = (e.thread :> int) in
  match e.op with
  | Event.Read x -> put_record buf op_read t (x :> int)
  | Event.Write x -> put_record buf op_write t (x :> int)
  | Event.Acquire l -> put_record buf op_acquire t (l :> int)
  | Event.Release l -> put_record buf op_release t (l :> int)
  | Event.Fork u -> put_record buf op_fork t (u :> int)
  | Event.Join u -> put_record buf op_join t (u :> int)
  | Event.Begin -> put_record buf op_begin t 0
  | Event.End -> put_record buf op_end t 0

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

(* A decode position in a mapping; [fault] is a corrupt record the
   block decoder stopped in front of.  The id domains are the header's,
   set by [set_domains] once it is read; until then no record fits. *)
type bsrc = {
  bb : bigbytes;
  blen : int;
  mutable bpos : int;
  mutable fault : exn option;
  mutable threads : int;
  mutable inline_tids : int;  (* [min threads 0x80]: the one-byte ids that fit *)
  mutable targets : int array;  (* per opcode, the domain of its target id *)
}

let bsrc_of bb =
  let blen = Bigarray.Array1.dim bb in
  { bb; blen; bpos = 0; fault = None; threads = 0; inline_tids = 0; targets = Array.make 8 0 }

(* Every opcode's target domain, indexed by opcode: variables, locks,
   threads, and for begin/end (whose target is 0) one. *)
let set_domains s (h : header) =
  s.threads <- h.threads;
  s.inline_tids <- min h.threads 0x80;
  s.targets <- [| h.vars; h.vars; h.locks; h.locks; h.threads; h.threads; 1; 1 |]

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
  let s = bsrc_of bb in
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

(* --- the block decoder ---

   Every reader of the event records goes through [decode_events], one
   loop for every version: v2/v3 files stop at the declared count (the
   footer follows), v1 files at the end of the mapping.  Records are
   decoded into a block of packed words — the caller's Bigarray chunk —
   by [fill_block], which keeps the position and the block index in
   registers and decodes inline every record with a one-byte thread id
   and a target of at most three bytes.  Any other record (a longer id,
   a record near the end of the mapping, a bad opcode) goes through
   [decode_record], which makes the checks of the original per-record
   loop in the same order and with the same messages.  A block stops
   before the first corrupt record: the caller consumes the words
   decoded so far and only then raises, so a consumer sees exactly the
   words in front of the fault. *)

(* A record varint at [s.bpos]; cut short or overlong.  A ninth byte
   carries bits 56..62, and bit 62 would make the id negative. *)
let rec record_uint (b : bigbytes) path s shift acc =
  if shift > 56 then corrupt "%s: id overflow" path
  else if s.bpos >= s.blen then corrupt "%s: truncated integer" path
  else begin
    let byte = Bigarray.Array1.unsafe_get b s.bpos in
    s.bpos <- s.bpos + 1;
    if shift = 56 && byte >= 0x40 then corrupt "%s: id overflow" path;
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte land 0x80 = 0 then acc else record_uint b path s (shift + 7) acc
  end

let domain_name op =
  if op <= op_write then "variable" else if op <= op_release then "lock" else "thread"

(* The general path: the record at [s.bpos < s.blen], with every check;
   [s.bpos] ends past it.  The checks against the header's domains come
   last, so a record that also fails an earlier one reports that. *)
let decode_record path (b : bigbytes) s =
  let op = Bigarray.Array1.unsafe_get b s.bpos in
  s.bpos <- s.bpos + 1;
  if op > op_end then corrupt "%s: unknown opcode %d" path op;
  let t = record_uint b path s 0 0 in
  let d = if op < op_begin then record_uint b path s 0 0 else 0 in
  if t > Packed.max_tid || d > Packed.max_target then
    corrupt "%s: id exceeds packed range" path;
  if t >= s.threads then
    corrupt "%s: thread id %d exceeds the header's %d threads" path t s.threads;
  let n = s.targets.(op) in
  if d >= n then
    corrupt "%s: %s id %d exceeds the header's %d %ss" path (domain_name op) d n
      (domain_name op);
  Packed.pack ~op ~tid:t ~target:d

(* Records from [pos] into [dst.(k .. stop-1)], up to the end of the
   mapping [len]; returns the index past the last word stored and
   leaves the position in [s.bpos].  Inline: a record whose thread id
   takes one byte and whose target, if any, one to three (below 2^21,
   so inside the packed range), both inside the header's domains.  An
   opcode byte of 8 or more, a longer varint, an id outside its domain
   or a record near the end of the mapping takes the general path. *)
let rec fill_block path (b : bigbytes) len s (dst : Packed.chunk) stop pos k =
  if k = stop || pos >= len then begin
    s.bpos <- pos;
    k
  end
  else begin
    let op = Bigarray.Array1.unsafe_get b pos in
    if pos + 4 >= len then general path b len s dst stop pos k
    else begin
      let t = Bigarray.Array1.unsafe_get b (pos + 1) in
      if t >= s.inline_tids || op >= 8 then general path b len s dst stop pos k
      else if op >= op_begin then begin
        Bigarray.Array1.unsafe_set dst k (Packed.pack ~op ~tid:t ~target:0);
        fill_block path b len s dst stop (pos + 2) (k + 1)
      end
      else begin
        (* [op < 6]: [targets] has 8 entries *)
        let dom = Array.unsafe_get s.targets op in
        let d0 = Bigarray.Array1.unsafe_get b (pos + 2) in
        if d0 < 0x80 then begin
          if d0 >= dom then general path b len s dst stop pos k
          else begin
            Bigarray.Array1.unsafe_set dst k (Packed.pack ~op ~tid:t ~target:d0);
            fill_block path b len s dst stop (pos + 3) (k + 1)
          end
        end
        else begin
          let d1 = Bigarray.Array1.unsafe_get b (pos + 3) in
          let d = (d0 land 0x7f) lor ((d1 land 0x7f) lsl 7) in
          if d1 < 0x80 then begin
            if d >= dom then general path b len s dst stop pos k
            else begin
              Bigarray.Array1.unsafe_set dst k (Packed.pack ~op ~tid:t ~target:d);
              fill_block path b len s dst stop (pos + 4) (k + 1)
            end
          end
          else begin
            let d2 = Bigarray.Array1.unsafe_get b (pos + 4) in
            let d = d lor (d2 lsl 14) in
            if d2 >= 0x80 || d >= dom then general path b len s dst stop pos k
            else begin
              Bigarray.Array1.unsafe_set dst k (Packed.pack ~op ~tid:t ~target:d);
              fill_block path b len s dst stop (pos + 5) (k + 1)
            end
          end
        end
      end
    end
  end

and general path b len s dst stop pos k =
  s.bpos <- pos;
  match decode_record path b s with
  | w ->
    Bigarray.Array1.unsafe_set dst k w;
    fill_block path b len s dst stop s.bpos (k + 1)
  | exception (Corrupt _ as e) ->
    s.fault <- Some e;
    k

(* Decode up to [room] records into [dst] from index [off]; returns how
   many were stored.  Fewer than [room] means the mapping ended or a
   record is corrupt ([s.fault]). *)
let decode_into path s (dst : Packed.chunk) off room =
  fill_block path s.bb s.blen s dst (off + room) s.bpos off - off

let note_ingest_bytes n bytes =
  if Obs.on () then begin
    Obs.Shared_counter.add events_decoded n;
    Obs.Shared_counter.add bytes_read bytes
  end

(* The one decode loop.  [step s want acc] decodes at most [want]
   records with [decode_into] into the caller's storage, consumes them
   and returns how many it decoded with the new accumulator; the loop
   stops at the declared count (v2/v3) or when a step makes no progress
   (the end of a v1 file), and raises a fault once the words in front
   of it are consumed. *)
let decode_events path ~init step =
  let bb = map_file path in
  let s = bsrc_of bb in
  let header = header_of_bsrc path s in
  set_domains s header;
  let rec go n acc =
    let want = if header.last_use then header.events - n else max_int in
    if want = 0 then (n, acc)
    else begin
      let k, acc = step s want acc in
      Option.iter raise s.fault;
      if k = 0 then (n, acc) else go (n + k) acc
    end
  in
  let n, acc = go 0 init in
  if n <> header.events then
    corrupt "%s: expected %d events, found %d" path header.events n;
  if header.last_use then check_footer_tail path header s;
  note_ingest_bytes header.events s.blen;
  (header, acc)

(* The block [fold_packed] decodes into before applying [f]: small
   enough to stay in cache, large enough that the per-block cost
   vanishes. *)
let block_words = 4096

let fold_packed path ~init ~f =
  let block = Bigarray.Array1.create Bigarray.int Bigarray.c_layout block_words in
  decode_events path ~init (fun s want acc ->
      let k = decode_into path s block 0 (min want block_words) in
      (* a local accumulator: no write barrier per word *)
      let acc = ref acc in
      for i = 0 to k - 1 do
        acc := f !acc (Bigarray.Array1.unsafe_get block i)
      done;
      (k, !acc))

(* Straight into the arena's chunks, with no call per word. *)
let read_packed path =
  let a = Packed.Arena.create () in
  decode_events path ~init:a (fun s want a ->
      ( Packed.Arena.fill a (fun c off room ->
            decode_into path s c off (min want room)),
        a ))

let read_file path =
  let b = Trace.Builder.create () in
  let _, () =
    fold_packed path ~init:() ~f:(fun () w ->
        Trace.Builder.add b (Packed.to_event w))
  in
  Trace.Builder.build b

(* ---- witness slices ---- *)

(* Serialize the [events] packed words [iter] hands over as a
   stand-alone version-1 file, streaming through one buffer.  The
   header keeps the source trace's id domains so thread/lock/var ids in
   the slice stay meaningful.  Version 1 deliberately: a slice has no
   use for last-use or accessor footers (it exists to be replayed once,
   not optimized), and v1 is the format every reader path accepts. *)
let write_packed_slice path ~threads ~locks ~vars ~events iter =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf magic;
  put_uint buf threads;
  put_uint buf locks;
  put_uint buf vars;
  put_uint buf events;
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let n = ref 0 in
      iter (fun w ->
          put_record buf (Packed.opcode w) (Packed.tid w) (Packed.target w);
          incr n;
          if Buffer.length buf > 60000 then begin
            Buffer.output_buffer oc buf;
            Buffer.clear buf
          end);
      Buffer.output_buffer oc buf;
      (* the header's count is what a v1 reader checks the records
         against *)
      if !n <> events then
        invalid_arg "Binfmt.write_packed_slice: event count mismatch")
