open Ids

type error = { line : int; message : string }

exception Parse_error of error

let fail line fmt = Format.kasprintf (fun message -> raise (Parse_error { line; message })) fmt

(* Splits "thread|op|rest" into fields; extra fields beyond the second are
   ignored (RAPID logs carry a source-location third field). *)
let split_fields s =
  String.split_on_char '|' s |> List.map String.trim

let is_name_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' | '$' | '@' -> true
  | _ -> false

let check_name line what s =
  if s = "" then fail line "empty %s name" what;
  String.iter
    (fun c -> if not (is_name_char c) then fail line "bad character %C in %s name %S" c what s)
    s

(* Parses an operation "kind(target)" or a bare keyword. *)
let parse_op line ~threads ~locks ~vars s =
  let with_target kind =
    match (String.index_opt s '(', String.rindex_opt s ')') with
    | Some i, Some j when j = String.length s - 1 && i < j ->
      let target = String.trim (String.sub s (i + 1) (j - i - 1)) in
      check_name line kind target;
      target
    | _ -> fail line "malformed operation %S (expected %s(target))" s kind
  in
  let kind =
    match String.index_opt s '(' with
    | Some i -> String.sub s 0 i
    | None -> s
  in
  match String.lowercase_ascii kind with
  | "r" | "read" -> Event.Read (Vid.of_int (Interner.intern vars (with_target kind)))
  | "w" | "write" -> Event.Write (Vid.of_int (Interner.intern vars (with_target kind)))
  | "acq" | "acquire" | "lock" ->
    Event.Acquire (Lid.of_int (Interner.intern locks (with_target kind)))
  | "rel" | "release" | "unlock" ->
    Event.Release (Lid.of_int (Interner.intern locks (with_target kind)))
  | "fork" -> Event.Fork (Tid.of_int (Interner.intern threads (with_target kind)))
  | "join" -> Event.Join (Tid.of_int (Interner.intern threads (with_target kind)))
  | "begin" | "b" -> Event.Begin
  | "end" | "e" -> Event.End
  | other -> fail line "unknown operation %S" other

(* One raw line against the interners; [None] for blanks and comments. *)
let parse_event_line ~threads ~locks ~vars lineno raw =
  let line = String.trim raw in
  if line = "" || line.[0] = '#' then None
  else
    match split_fields line with
    | thread :: op :: _ ->
      check_name lineno "thread" thread;
      let tid = Tid.of_int (Interner.intern threads thread) in
      let op = parse_op lineno ~threads ~locks ~vars op in
      Some (Event.make tid op)
    | _ -> fail lineno "expected thread|operation, got %S" line

(* A binary trace reaches the text readers only through a stream that
   {!Binfmt.is_binary} cannot size (a pipe); refused by name rather than
   echoed back as a malformed line. *)
let refuse_binary first_line =
  let n = String.length Binfmt.magic in
  if String.length first_line >= n then
    let m = String.sub first_line 0 n in
    if m = Binfmt.magic || m = Binfmt.magic_v2 || m = Binfmt.magic_v3 then
      fail 1 "binary trace on a pipe: pass it as a regular file"

let parse_lines_exn lines =
  let threads = Interner.create ()
  and locks = Interner.create ()
  and vars = Interner.create () in
  let events = ref [] in
  let lineno = ref 0 in
  Seq.iter
    (fun raw ->
      incr lineno;
      if !lineno = 1 then refuse_binary raw;
      match parse_event_line ~threads ~locks ~vars !lineno raw with
      | Some e -> events := e :: !events
      | None -> ())
    lines;
  let symbols : Trace.Symbols.t =
    {
      threads = Interner.names threads;
      locks = Interner.names locks;
      vars = Interner.names vars;
    }
  in
  Trace.of_events ~symbols (List.rev !events)

let parse_lines lines =
  match parse_lines_exn lines with
  | tr -> Ok tr
  | exception Parse_error e -> Error e

let seq_of_string s = String.split_on_char '\n' s |> List.to_seq

let parse_string s = parse_lines (seq_of_string s)
let parse_string_exn s = parse_lines_exn (seq_of_string s)

(* Read to EOF rather than sizing the channel: a pipe has no length. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let parse_file path = parse_string (read_file path)
let parse_file_exn path = parse_string_exn (read_file path)

(* --- single-pass packed reader ---

   A text trace only reveals its domain sizes once fully scanned (a
   name's id is its order of first appearance), so the checker cannot be
   created before the last line.  Instead of reading the file twice, one
   pass decodes every event into a {!Packed.Arena} — 8 bytes per event —
   and notes each variable's and lock's last use (and, when asked, its
   accessors) as the word is pushed.

   The file is read through one reusable byte window, and every complete
   line in it is decoded in place by the loop that finds its end.  A
   canonical line is [name|kw(name)] or [name|begin|end|b|e], with an
   optional [|...] third field, ending in [\n] or [\r\n].  Each name's
   bytes are gathered into an int while they are validated: a name of at
   most [short_max] bytes is then found by that int ({!Short}), a longer
   one by hashing its bytes in the window ({!Ids.Interner.intern_sub}),
   so a line of known names allocates nothing.  Every other line —
   blank, comment, padded, upper-case, malformed — goes to
   {!parse_event_line} on the same interners, so ids, events and errors
   are exactly those of the per-line parser. *)

(* Process-wide ingestion counters, bulk-updated once per file. *)
let events_parsed =
  Obs.Registry.shared_counter Obs.Registry.global "ingest.text.events_parsed"

let lines_read =
  Obs.Registry.shared_counter Obs.Registry.global "ingest.text.lines_read"

let slow_lines_read =
  Obs.Registry.shared_counter Obs.Registry.global "ingest.text.slow_lines"

type packed = {
  arena : Packed.Arena.t;
  symbols : Trace.Symbols.t;
  lifetime : Lifetime.t;
  stats : Varstats.t option;
  slow_lines : int;
}

let window_bytes = 65536
let checkpoint_lines = 4096

(* A short name's key is its bytes, big-endian, in one int.  Name
   characters are never NUL, so distinct names of at most [short_max]
   bytes have distinct keys, and no key is 0. *)
let short_max = 7

(* Short names of one interner, by key: open addressing over a
   power-of-two table, 0 marking an empty slot.  The table only caches
   ids the interner assigned, so ids stay in order of first appearance
   whichever path meets a name first. *)
module Short = struct
  type t = {
    names : Interner.t;
    mutable slots : int array;  (* key at [2i], its id at [2i+1] *)
    mutable shift : int;  (* 63 - log2 (number of slots) *)
    mutable count : int;
  }

  let create names = { names; slots = Array.make 128 0; shift = 57; count = 0 }

  let rec probe slots key i =
    let k = Array.unsafe_get slots i in
    if k = key || k = 0 then i else probe slots key ((i + 2) land (Array.length slots - 1))

  (* Fibonacci hashing: the top bits of the key times an odd constant *)
  let slot t key = probe t.slots key (((key * 0x1E3779B97F4A7C15) lsr t.shift) lsl 1)

  let grow t =
    let old = t.slots in
    t.slots <- Array.make (2 * Array.length old) 0;
    t.shift <- t.shift - 1;
    for j = 0 to (Array.length old / 2) - 1 do
      let key = old.(2 * j) in
      if key <> 0 then begin
        let i = slot t key in
        t.slots.(i) <- key;
        t.slots.(i + 1) <- old.((2 * j) + 1)
      end
    done

  (* The id of the name [b.[pos .. pos+len-1]], whose key is [key]. *)
  let id t key b pos len =
    let i = slot t key in
    if Array.unsafe_get t.slots i = key then Array.unsafe_get t.slots (i + 1)
    else begin
      let id = Interner.intern_sub t.names b pos len in
      t.slots.(i) <- key;
      t.slots.(i + 1) <- id;
      t.count <- t.count + 1;
      if 4 * t.count > Array.length t.slots then grow t;
      id
    end
end

let name_class = String.init 256 (fun c -> if is_name_char (Char.chr c) then '\001' else '\000')
let [@inline] is_name c = String.unsafe_get name_class (Char.code c) <> '\000'

(* Opcode of a lower-case keyword from its key (its bytes, big-endian),
   or -1.  A run of eight or more letters keys outside [0, 2^56) and
   matches nothing. *)
let keyword = function
  | 0x72 (* r *) | 0x72656164 (* read *) -> Packed.op_read
  | 0x77 (* w *) | 0x7772697465 (* write *) -> Packed.op_write
  | 0x616371 (* acq *) | 0x61637175697265 (* acquire *) | 0x6c6f636b (* lock *) ->
    Packed.op_acquire
  | 0x72656c (* rel *) | 0x72656c65617365 (* release *) | 0x756e6c6f636b (* unlock *) ->
    Packed.op_release
  | 0x666f726b (* fork *) -> Packed.op_fork
  | 0x6a6f696e (* join *) -> Packed.op_join
  | 0x62 (* b *) | 0x626567696e (* begin *) -> Packed.op_begin
  | 0x65 (* e *) | 0x656e64 (* end *) -> Packed.op_end
  | _ -> -1

let too_many line what limit =
  fail line "more than %d %s: ids no longer fit a packed word" limit what

(* The scan's state.  [buf.[fill]] is always NUL, a byte that ends every
   name and keyword and matches no delimiter, so the decoder reads up to
   it without bounds tests.  A line it rejects there may only be cut
   short: the scan refills and decodes it again when its newline is not
   in the window yet. *)
type scan = {
  ic : in_channel;
  mutable buf : Bytes.t;
  mutable fill : int;
  mutable eof : bool;
  mutable lines : int;  (* complete lines so far *)
  mutable slow : int;
  checkpoint : unit -> unit;
  threads : Short.t;
  locks : Short.t;
  vars : Short.t;
  arena : Packed.Arena.t;
  mutable events : int;
  (* last use per id, each array grown on demand *)
  mutable last_var : int array;
  mutable last_lock : int array;
  stats : Varstats.t option;
}

(* {!fast_line}'s result for a line it cannot decode in place *)
let not_canonical = -1

let rec newline b i stop =
  if i >= stop || Bytes.unsafe_get b i = '\n' then i else newline b (i + 1) stop

(* Start of the next line when the current one may end at [j]: a line
   terminator, a third field, or the end of the file. *)
let line_end st b j =
  match Bytes.unsafe_get b j with
  | '\n' -> j + 1
  | '\r' ->
    if Bytes.unsafe_get b (j + 1) = '\n' then j + 2
    else if j + 1 = st.fill && st.eof then j + 1
    else not_canonical
  | '|' ->
    let nl = newline b (j + 1) st.fill in
    if nl < st.fill then nl + 1 else if st.eof then st.fill else not_canonical
  | _ -> if j = st.fill && st.eof then j else not_canonical

(* [last] with room for index [x], new entries [Lifetime.never] *)
let grow last x =
  let a = Array.make (max (x + 1) (2 * Array.length last)) Lifetime.never in
  Array.blit last 0 a 0 (Array.length last);
  a

(* Appends the event and notes its access, as index [st.events]. *)
let push st op tid target =
  let w = Packed.pack ~op ~tid ~target in
  Packed.Arena.push st.arena w;
  if op <= Packed.op_write then begin
    if target >= Array.length st.last_var then st.last_var <- grow st.last_var target;
    Array.unsafe_set st.last_var target st.events
  end
  else if op <= Packed.op_release then begin
    if target >= Array.length st.last_lock then st.last_lock <- grow st.last_lock target;
    Array.unsafe_set st.last_lock target st.events
  end;
  (match st.stats with Some vs -> Varstats.note_packed vs w | None -> ());
  st.events <- st.events + 1

let name_id names key b pos stop =
  if stop - pos <= short_max then Short.id names key b pos (stop - pos)
  else Interner.intern_sub names.Short.names b pos (stop - pos)

let thread_id st key b pos stop =
  let tid = name_id st.threads key b pos stop in
  if tid > Packed.max_tid then too_many (st.lines + 1) "threads" (Packed.max_tid + 1);
  tid

(* Decodes the line starting at [s] in place and pushes its word, giving
   the next line's start; or [not_canonical], having interned and pushed
   nothing, when the line is not canonical or not wholly in the window. *)
let fast_line st b s =
  let i = ref s and key = ref 0 and c = ref (Bytes.unsafe_get b s) in
  while is_name !c do
    key := (!key lsl 8) lor Char.code !c;
    incr i;
    c := Bytes.unsafe_get b !i
  done;
  let t_end = !i and t_key = !key in
  if t_end = s || !c <> '|' then not_canonical
  else begin
    incr i;
    key := 0;
    c := Bytes.unsafe_get b !i;
    while !c >= 'a' && !c <= 'z' do
      key := (!key lsl 8) lor Char.code !c;
      incr i;
      c := Bytes.unsafe_get b !i
    done;
    let k_end = !i in
    let op = keyword !key in
    if op < 0 then not_canonical
    else if op >= Packed.op_begin then begin
      let next = line_end st b k_end in
      if next >= 0 then push st op (thread_id st t_key b s t_end) 0;
      next
    end
    else if !c <> '(' then not_canonical
    else begin
      let n = k_end + 1 in
      i := n;
      key := 0;
      c := Bytes.unsafe_get b n;
      while is_name !c do
        key := (!key lsl 8) lor Char.code !c;
        incr i;
        c := Bytes.unsafe_get b !i
      done;
      let n_end = !i in
      if n_end = n || !c <> ')' then not_canonical
      else begin
        let next = line_end st b (n_end + 1) in
        if next >= 0 then begin
          let tid = thread_id st t_key b s t_end in
          let names =
            if op <= Packed.op_write then st.vars
            else if op <= Packed.op_release then st.locks
            else st.threads
          in
          let target = name_id names !key b n n_end in
          if op >= Packed.op_fork && target > Packed.max_tid then
            too_many (st.lines + 1) "threads" (Packed.max_tid + 1);
          if target > Packed.max_target then
            too_many (st.lines + 1) "names" (Packed.max_target + 1);
          push st op tid target
        end;
        next
      end
    end
  end

let slow_line st raw =
  let lineno = st.lines + 1 in
  if lineno = 1 then refuse_binary raw;
  st.slow <- st.slow + 1;
  let threads = st.threads.names and locks = st.locks.names and vars = st.vars.names in
  match parse_event_line ~threads ~locks ~vars lineno raw with
  | None -> ()
  | Some e ->
    if Interner.count threads > Packed.max_tid + 1 then
      too_many lineno "threads" (Packed.max_tid + 1);
    if max (Interner.count vars) (Interner.count locks) > Packed.max_target + 1 then
      too_many lineno "names" (Packed.max_target + 1);
    let w = Packed.of_event e in
    push st (Packed.opcode w) (Packed.tid w) (Packed.target w)

(* Reads more after the line starting at [s], moved to the front; the
   window grows only when that line already fills it. *)
let refill st s =
  let keep = st.fill - s in
  let room = Bytes.length st.buf - 1 in
  if s = 0 && keep = room then begin
    let grown = Bytes.create ((2 * room) + 1) in
    Bytes.blit st.buf 0 grown 0 keep;
    st.buf <- grown
  end
  else Bytes.blit st.buf s st.buf 0 keep;
  let got = In_channel.input st.ic st.buf keep (Bytes.length st.buf - 1 - keep) in
  if got = 0 then st.eof <- true;
  st.fill <- keep + got;
  Bytes.unsafe_set st.buf st.fill '\000'

let line_done st =
  st.lines <- st.lines + 1;
  if st.lines land (checkpoint_lines - 1) = 0 then st.checkpoint ()

(* Every line from [s] on: the loop of the whole scan. *)
let rec scan st s =
  if s < st.fill then begin
    let next = fast_line st st.buf s in
    if next >= 0 then begin
      line_done st;
      scan st next
    end
    else begin
      let nl = newline st.buf s st.fill in
      if nl < st.fill || st.eof then begin
        slow_line st (Bytes.sub_string st.buf s (nl - s));
        line_done st;
        scan st (min (nl + 1) st.fill)
      end
      else begin
        refill st s;
        scan st 0
      end
    end
  end
  else if not st.eof then begin
    refill st s;
    scan st 0
  end

let read_packed ?(stats = false) ?(checkpoint = ignore) path =
  let threads = Interner.create ()
  and locks = Interner.create ()
  and vars = Interner.create () in
  let ic = open_in_bin path in
  let st =
    {
      ic;
      buf = Bytes.make (window_bytes + 1) '\000';
      fill = 0;
      eof = false;
      lines = 0;
      slow = 0;
      checkpoint;
      threads = Short.create threads;
      locks = Short.create locks;
      vars = Short.create vars;
      arena = Packed.Arena.create ();
      events = 0;
      last_var = Array.make 64 Lifetime.never;
      last_lock = Array.make 64 Lifetime.never;
      stats = (if stats then Some (Varstats.create ~vars:1 ~locks:1) else None);
    }
  in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> scan st 0);
  let symbols : Trace.Symbols.t =
    {
      threads = Interner.names threads;
      locks = Interner.names locks;
      vars = Interner.names vars;
    }
  in
  let nvars = Interner.count vars and nlocks = Interner.count locks in
  let lifetime : Lifetime.t =
    { vars = Array.sub st.last_var 0 nvars; locks = Array.sub st.last_lock 0 nlocks }
  in
  (* the statistics trimmed to the domains, as {!Varstats.create} sizes them *)
  let vs =
    Option.map
      (fun vs ->
        let trim n f = Array.init (max n 1) f in
        Varstats.of_arrays
          ~var_mask:(trim nvars (Varstats.var_mask vs))
          ~var_writes:(trim nvars (Varstats.var_writes vs))
          ~lock_mask:(trim nlocks (Varstats.lock_mask vs)))
      st.stats
  in
  if Obs.on () then begin
    Obs.Shared_counter.add lines_read st.lines;
    Obs.Shared_counter.add slow_lines_read st.slow;
    Obs.Shared_counter.add events_parsed st.events
  end;
  { arena = st.arena; symbols; lifetime; stats = vs; slow_lines = st.slow }

let fold_file_exn ?last_use ?stats path ~init ~f =
  let p = read_packed ~stats:(stats <> None) path in
  Option.iter (fun notify -> notify p.lifetime) last_use;
  (match (stats, p.stats) with Some notify, Some vs -> notify vs | _ -> ());
  let acc =
    ref
      (init ~threads:(Array.length p.symbols.threads)
         ~locks:(Array.length p.symbols.locks) ~vars:(Array.length p.symbols.vars))
  in
  Packed.Arena.iter p.arena (fun w -> acc := f !acc (Packed.to_event w));
  !acc

let fold_file ?last_use ?stats path ~init ~f =
  match fold_file_exn ?last_use ?stats path ~init ~f with
  | acc -> Ok acc
  | exception Parse_error e -> Error e


(* --- writer ---

   Each name is rendered once: a thread's ["name|"] prefix and a
   target's ["name)\n"] suffix.  An event is then two or three blits into
   one window, handed to [flush] whenever the next piece would not fit.
   Ids index the name tables through [:> int], not [to_int] calls. *)

let default_symbols : Trace.Symbols.t = { threads = [||]; locks = [||]; vars = [||] }

let symbols_of tr = Option.value ~default:default_symbols (Trace.symbols tr)

let render tr flush =
  let s = symbols_of tr in
  let names n name suffix = Array.init n (fun i -> name s i ^ suffix) in
  let thread_name s i = Trace.Symbols.thread s (Tid.of_int i) in
  let prefix = names (Trace.threads tr) thread_name "|" in
  let thread = names (Trace.threads tr) thread_name ")\n"
  and lock = names (Trace.locks tr) (fun s i -> Trace.Symbols.lock s (Lid.of_int i)) ")\n"
  and var = names (Trace.vars tr) (fun s i -> Trace.Symbols.var s (Vid.of_int i)) ")\n" in
  let buf = Bytes.create window_bytes and pos = ref 0 in
  let add piece =
    let n = String.length piece in
    if !pos + n > window_bytes then begin
      flush buf !pos;
      pos := 0
    end;
    if n > window_bytes then flush (Bytes.unsafe_of_string piece) n
    else begin
      Bytes.unsafe_blit_string piece 0 buf !pos n;
      pos := !pos + n
    end
  in
  Trace.iter
    (fun (e : Event.t) ->
      add prefix.((e.thread :> int));
      match e.op with
      | Event.Read x ->
        add "r(";
        add var.((x :> int))
      | Event.Write x ->
        add "w(";
        add var.((x :> int))
      | Event.Acquire l ->
        add "acq(";
        add lock.((l :> int))
      | Event.Release l ->
        add "rel(";
        add lock.((l :> int))
      | Event.Fork u ->
        add "fork(";
        add thread.((u :> int))
      | Event.Join u ->
        add "join(";
        add thread.((u :> int))
      | Event.Begin -> add "begin\n"
      | Event.End -> add "end\n")
    tr;
  flush buf !pos

let to_string tr =
  let out = Buffer.create (16 * Trace.length tr) in
  render tr (fun b n -> Buffer.add_subbytes out b 0 n);
  Buffer.contents out

let to_channel oc tr = render tr (fun b n -> output oc b 0 n)

let to_file path tr =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> to_channel oc tr)

let pp_error ppf e = Format.fprintf ppf "line %d: %s" e.line e.message
