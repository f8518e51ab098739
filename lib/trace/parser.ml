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
   and the domains, the last-use index and the accessor statistics come
   from the finished arena.

   The scan reads the file through one reusable byte window and decodes
   each canonical line in place: [name|kw(name)] or [name|begin|end|b|e],
   with an optional [|...] third field, ending in [\n] or [\r\n].  A
   known name is found by hashing its bytes in the window
   ({!Ids.Interner.intern_sub}), so such a line allocates nothing.  Every
   other line — blank, comment, padded, upper-case, malformed — goes to
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

let rec name_end b i stop =
  if i < stop && is_name_char (Bytes.unsafe_get b i) then name_end b (i + 1) stop else i

let rec lower_end b i stop =
  if i < stop then
    match Bytes.unsafe_get b i with 'a' .. 'z' -> lower_end b (i + 1) stop | _ -> i
  else i

let rec newline b i stop =
  if i >= stop || Bytes.unsafe_get b i = '\n' then i else newline b (i + 1) stop

let rec same b pos s i =
  i = String.length s
  || (Bytes.unsafe_get b (pos + i) = String.unsafe_get s i && same b pos s (i + 1))

let is_kw b pos len s = String.length s = len && same b pos s 0

(* Opcode of the lower-case keyword [b.[pos .. pos+len-1]], or -1. *)
let keyword b pos len =
  match Bytes.unsafe_get b pos with
  | 'r' ->
    if len = 1 || is_kw b pos len "read" then Packed.op_read
    else if is_kw b pos len "rel" || is_kw b pos len "release" then Packed.op_release
    else -1
  | 'w' -> if len = 1 || is_kw b pos len "write" then Packed.op_write else -1
  | 'a' ->
    if is_kw b pos len "acq" || is_kw b pos len "acquire" then Packed.op_acquire else -1
  | 'l' -> if is_kw b pos len "lock" then Packed.op_acquire else -1
  | 'u' -> if is_kw b pos len "unlock" then Packed.op_release else -1
  | 'f' -> if is_kw b pos len "fork" then Packed.op_fork else -1
  | 'j' -> if is_kw b pos len "join" then Packed.op_join else -1
  | 'b' -> if len = 1 || is_kw b pos len "begin" then Packed.op_begin else -1
  | 'e' -> if len = 1 || is_kw b pos len "end" then Packed.op_end else -1
  | _ -> -1

let too_many line what limit =
  fail line "more than %d %s: ids no longer fit a packed word" limit what

(* Decodes the canonical line [b.[s .. stop-1]] (no line terminator) and
   pushes its word; [false] when the line is not canonical. *)
let fast_line ~threads ~locks ~vars arena lineno b s stop =
  let t_end = name_end b s stop in
  if t_end = s || t_end >= stop || Bytes.unsafe_get b t_end <> '|' then false
  else
    let k = t_end + 1 in
    let k_end = lower_end b k stop in
    if k_end = k then false
    else
      let op = keyword b k (k_end - k) in
      if op < 0 then false
      else if k_end = stop || Bytes.unsafe_get b k_end = '|' then
        op >= Packed.op_begin
        && begin
          let tid = Interner.intern_sub threads b s (t_end - s) in
          if tid > Packed.max_tid then too_many lineno "threads" (Packed.max_tid + 1);
          Packed.Arena.push arena (op lor (tid lsl 3));
          true
        end
      else if op >= Packed.op_begin || Bytes.unsafe_get b k_end <> '(' then false
      else
        let n = k_end + 1 in
        let n_end = name_end b n stop in
        let after = n_end + 1 in
        if n_end = n || n_end >= stop || Bytes.unsafe_get b n_end <> ')'
           || (after < stop && Bytes.unsafe_get b after <> '|')
        then false
        else begin
          let tid = Interner.intern_sub threads b s (t_end - s) in
          if tid > Packed.max_tid then too_many lineno "threads" (Packed.max_tid + 1);
          let names =
            if op <= Packed.op_write then vars
            else if op <= Packed.op_release then locks
            else threads
          in
          let target = Interner.intern_sub names b n (n_end - n) in
          if op >= Packed.op_fork && target > Packed.max_tid then
            too_many lineno "threads" (Packed.max_tid + 1);
          if target > Packed.max_target then
            too_many lineno "names" (Packed.max_target + 1);
          Packed.Arena.push arena (Packed.pack ~op ~tid ~target);
          true
        end

let slow_line ~threads ~locks ~vars arena lineno raw =
  match parse_event_line ~threads ~locks ~vars lineno raw with
  | None -> ()
  | Some e ->
    if Interner.count threads > Packed.max_tid + 1 then
      too_many lineno "threads" (Packed.max_tid + 1);
    if max (Interner.count vars) (Interner.count locks) > Packed.max_target + 1 then
      too_many lineno "names" (Packed.max_target + 1);
    Packed.Arena.push arena (Packed.of_event e)

(* Lines of [ic] as [line lineno buf start stop], [stop] excluding the
   ['\n'] — the lines [In_channel.input_line] would return, read into
   one window that only grows for a line longer than itself. *)
let scan_lines ?checkpoint ic line =
  let buf = ref (Bytes.create window_bytes) in
  let pos = ref 0 and fill = ref 0 and eof = ref false in
  let lineno = ref 0 in
  (* refill after [pos]: shift the partial line to the front, growing
     the window when the partial line already fills it *)
  let refill () =
    let keep = !fill - !pos in
    if !pos = 0 && keep = Bytes.length !buf then begin
      let grown = Bytes.create (2 * Bytes.length !buf) in
      Bytes.blit !buf 0 grown 0 keep;
      buf := grown
    end
    else Bytes.blit !buf !pos !buf 0 keep;
    pos := 0;
    fill := keep;
    let got = In_channel.input ic !buf keep (Bytes.length !buf - keep) in
    if got = 0 then eof := true else fill := keep + got
  in
  let rec next_line search =
    let nl = newline !buf search !fill in
    if nl < !fill then emit nl (nl + 1)
    else if !eof then (if !pos < !fill then emit !fill !fill)
    else begin
      let scanned = !fill - !pos in
      refill ();
      next_line scanned
    end
  and emit stop resume =
    incr lineno;
    line !lineno !buf !pos stop;
    pos := resume;
    (match checkpoint with
    | Some f when !lineno land (checkpoint_lines - 1) = 0 -> f ()
    | _ -> ());
    next_line !pos
  in
  next_line 0;
  !lineno

let read_packed ?(stats = false) ?checkpoint path =
  let threads = Interner.create ()
  and locks = Interner.create ()
  and vars = Interner.create () in
  let arena = Packed.Arena.create () in
  let slow = ref 0 in
  let line lineno b s stop =
    let content =
      if stop > s && Bytes.unsafe_get b (stop - 1) = '\r' then stop - 1 else stop
    in
    if not (fast_line ~threads ~locks ~vars arena lineno b s content) then begin
      let raw = Bytes.sub_string b s (stop - s) in
      if lineno = 1 then refuse_binary raw;
      incr slow;
      slow_line ~threads ~locks ~vars arena lineno raw
    end
  in
  let lines =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> scan_lines ?checkpoint ic line)
  in
  let symbols : Trace.Symbols.t =
    {
      threads = Interner.names threads;
      locks = Interner.names locks;
      vars = Interner.names vars;
    }
  in
  let nvars = Interner.count vars and nlocks = Interner.count locks in
  let lifetime = Lifetime.create ~vars:nvars ~locks:nlocks in
  let vs = if stats then Some (Varstats.create ~vars:nvars ~locks:nlocks) else None in
  let i = ref 0 in
  Packed.Arena.iter arena (fun w ->
      Lifetime.note_packed lifetime !i w;
      (match vs with Some vs -> Varstats.note_packed vs w | None -> ());
      incr i);
  if Obs.on () then begin
    Obs.Shared_counter.add lines_read lines;
    Obs.Shared_counter.add slow_lines_read !slow;
    Obs.Shared_counter.add events_parsed (Packed.Arena.length arena)
  end;
  { arena; symbols; lifetime; stats = vs; slow_lines = !slow }

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

(* One event's line through [add], piece by piece: no per-event string
   is built. *)
let add_target add kw name =
  add kw;
  add name;
  add ")\n"

let render_event symbols add (e : Event.t) =
  let s = (symbols : Trace.Symbols.t) in
  add (Trace.Symbols.thread s e.thread);
  match e.op with
  | Event.Read x -> add_target add "|r(" (Trace.Symbols.var s x)
  | Event.Write x -> add_target add "|w(" (Trace.Symbols.var s x)
  | Event.Acquire l -> add_target add "|acq(" (Trace.Symbols.lock s l)
  | Event.Release l -> add_target add "|rel(" (Trace.Symbols.lock s l)
  | Event.Fork u -> add_target add "|fork(" (Trace.Symbols.thread s u)
  | Event.Join u -> add_target add "|join(" (Trace.Symbols.thread s u)
  | Event.Begin -> add "|begin\n"
  | Event.End -> add "|end\n"

let default_symbols : Trace.Symbols.t = { threads = [||]; locks = [||]; vars = [||] }

let symbols_of tr = Option.value ~default:default_symbols (Trace.symbols tr)

let to_string tr =
  let symbols = symbols_of tr in
  let buf = Buffer.create (16 * Trace.length tr) in
  let add = Buffer.add_string buf in
  Trace.iter (render_event symbols add) tr;
  Buffer.contents buf

(* Streams through one window-sized buffer: a channel write per piece
   would pay the channel lock each time. *)
let to_channel oc tr =
  let symbols = symbols_of tr in
  let buf = Buffer.create (window_bytes + 256) in
  let add = Buffer.add_string buf in
  Trace.iter
    (fun e ->
      render_event symbols add e;
      if Buffer.length buf >= window_bytes then begin
        Buffer.output_buffer oc buf;
        Buffer.clear buf
      end)
    tr;
  Buffer.output_buffer oc buf

let to_file path tr =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> to_channel oc tr)

let pp_error ppf e = Format.fprintf ppf "line %d: %s" e.line e.message
