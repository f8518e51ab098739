(* OpenMetrics/Prometheus text exposition of registry snapshots, plus a
   minimal HTTP/1.0 responder that serves it from its own domain.

   Dependency-free by design (Unix only).  The exposition side turns
   [Snapshot.t] entries into metric families:

   - dots and other illegal characters in metric names become
     underscores under an [aerodrome_] prefix
     (["events.total"] -> [aerodrome_events_total]);
   - the per-chunk series the sharded runner emits
     (["shard.chunk3.events"]) collapse into one family with a
     [chunk="3"] label;
   - [Int] renders as a counter, [Float] as a gauge, and [Hist] as a
     Prometheus histogram (cumulative [_bucket{le=...}] plus [_sum] and
     [_count]);
   - a [Label] renders as a gauge of 1 carrying the label under its
     metric name's last component (["decision.exec"] = [sequential] ->
     [aerodrome_decision_exec{exec="sequential"} 1]);
   - every sample can carry extra labels (the live table tags each
     registry with the file it is checking);
   - the document ends with [# EOF], the OpenMetrics terminator.

   The server samples [Registry.global] and the [Live] table on each
   scrape.  Sampling reads immediate-int counter cells without any
   synchronization against the checker domain — tear-free, possibly a
   few events stale, and never a stall on the checker's hot path. *)

(* ---------- metric-name and label plumbing ---------- *)

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = ':'

let sanitize name =
  let b = Bytes.of_string name in
  for i = 0 to Bytes.length b - 1 do
    if not (is_name_char (Bytes.get b i)) then Bytes.set b i '_'
  done;
  "aerodrome_" ^ Bytes.to_string b

(* ["shard.chunk3.events"] -> [Some ("shard.chunk.events", "3")].  The
   chunk ordinal is the one snapshot-name component that is data, not
   identity; everything else stays in the family name. *)
let split_chunk name =
  match String.index_opt name '.' with
  | None -> None
  | Some _ ->
    let needle = ".chunk" in
    let nlen = String.length needle in
    let len = String.length name in
    let rec find i =
      if i + nlen > len then None
      else if String.sub name i nlen = needle then Some i
      else find (i + 1)
    in
    (match find 0 with
    | None -> None
    | Some i ->
      let j = ref (i + nlen) in
      while !j < len && name.[!j] >= '0' && name.[!j] <= '9' do incr j done;
      if !j = i + nlen || !j >= len || name.[!j] <> '.' then None
      else
        let ordinal = String.sub name (i + nlen) (!j - i - nlen) in
        let family =
          String.sub name 0 (i + nlen) ^ String.sub name !j (len - !j)
        in
        Some (family, ordinal))

let escape_label_value v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let render_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k (escape_label_value v)) labels)
    ^ "}"

(* ---------- series model ---------- *)

type series = {
  family : string; (* sanitized family name *)
  help : string; (* original snapshot metric name *)
  labels : (string * string) list;
  value : Snapshot.value;
}

let series_of_entry ~labels (e : Snapshot.entry) =
  let name = e.Snapshot.name in
  let raw_family, labels =
    match split_chunk name with
    | Some (family, ordinal) -> (family, labels @ [ ("chunk", ordinal) ])
    | None -> (name, labels)
  in
  let labels =
    match e.Snapshot.value with
    | Snapshot.Label v ->
      let key =
        match String.rindex_opt raw_family '.' with
        | Some i -> String.sub raw_family (i + 1) (String.length raw_family - i - 1)
        | None -> raw_family
      in
      labels @ [ (key, v) ]
    | _ -> labels
  in
  { family = sanitize raw_family; help = raw_family; labels; value = e.Snapshot.value }

(* Two live registries can publish the same family under the same
   labels (e.g. a checker metric plus a process probe of the same
   name); the text format forbids duplicate samples, so identical
   (family, labels) series fold together with [Snapshot.merge]
   semantics — except that a histogram bounds mismatch keeps the first
   series instead of raising: a scrape must never take the process
   down. *)
let combine a b =
  match (a, b) with
  | Snapshot.Int x, Snapshot.Int y -> Snapshot.Int (x + y)
  | Snapshot.Float x, Snapshot.Float y -> Snapshot.Float (Float.max x y)
  | Snapshot.Hist h, Snapshot.Hist g when h.bounds = g.bounds ->
    Snapshot.Hist
      {
        bounds = h.bounds;
        counts = Array.mapi (fun i c -> c + g.counts.(i)) h.counts;
        total = h.total + g.total;
        sum = h.sum + g.sum;
      }
  | a, _ -> a

let type_of_value = function
  | Snapshot.Int _ -> "counter"
  | Snapshot.Float _ | Snapshot.Label _ -> "gauge"
  | Snapshot.Hist _ -> "histogram"

let render_value b family labels = function
  | Snapshot.Int n -> Printf.bprintf b "%s%s %d\n" family (render_labels labels) n
  | Snapshot.Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.bprintf b "%s%s %.0f\n" family (render_labels labels) f
    else Printf.bprintf b "%s%s %.6g\n" family (render_labels labels) f
  | Snapshot.Label _ -> Printf.bprintf b "%s%s 1\n" family (render_labels labels)
  | Snapshot.Hist { bounds; counts; total; sum } ->
    let cumulative = ref 0 in
    Array.iteri
      (fun i c ->
        cumulative := !cumulative + c;
        let le =
          if i < Array.length bounds then string_of_int bounds.(i) else "+Inf"
        in
        Printf.bprintf b "%s_bucket%s %d\n" family
          (render_labels (labels @ [ ("le", le) ]))
          !cumulative)
      counts;
    Printf.bprintf b "%s_sum%s %d\n" family (render_labels labels) sum;
    Printf.bprintf b "%s_count%s %d\n" family (render_labels labels) total

(* [render series] groups by family (one # HELP/# TYPE block each, in
   first-appearance order), folds identical labelsets, and terminates
   with # EOF. *)
let render (series : series list) : string =
  let families = ref [] in
  (* (family, help, type, (labels, value) list) — all newest-last *)
  List.iter
    (fun s ->
      let ty = type_of_value s.value in
      match List.assoc_opt s.family !families with
      | None -> families := !families @ [ (s.family, (s.help, ty, ref [ (s.labels, s.value) ])) ]
      | Some (_, fty, samples) ->
        if fty = ty then begin
          match List.assoc_opt s.labels !samples with
          | None -> samples := !samples @ [ (s.labels, s.value) ]
          | Some v ->
            samples :=
              List.map
                (fun (l, v0) -> if l = s.labels then (l, combine v0 s.value) else (l, v0))
                !samples;
            ignore v
        end
        (* a family whose type disagrees with its first appearance is
           dropped rather than emitted as an invalid mixed family *))
    series;
  let b = Buffer.create 4096 in
  List.iter
    (fun (family, (help, ty, samples)) ->
      Printf.bprintf b "# HELP %s aerodrome metric %s\n" family help;
      Printf.bprintf b "# TYPE %s %s\n" family ty;
      List.iter (fun (labels, v) -> render_value b family labels v) !samples)
    !families;
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

(* [of_snapshot ?labels snap] is the plain translation used by tests
   and by the one-shot renderer. *)
let of_snapshot ?(labels = []) (snap : Snapshot.t) : series list =
  List.map (series_of_entry ~labels) (Snapshot.sorted snap)

let gauge_series ~family ~help v =
  { family; help; labels = []; value = Snapshot.Float v }

let counter_series ~family ~help v =
  { family; help; labels = []; value = Snapshot.Int v }

(* ---------- exposition validator ---------- *)

(* A strict checker for the subset of the text format this exporter
   emits (and a bit more): # HELP/# TYPE metadata must precede a
   family's samples, TYPE may not repeat or disagree, sample names must
   match a declared family (histogram families own _bucket/_sum/_count,
   and _bucket requires an le label), names and labels must be
   well-formed, values must parse as numbers, and the document must end
   with # EOF with nothing after it.  Used by bench/validate_openmetrics
   and by the bench harness to certify live scrapes. *)

exception Bad of string

let validate (doc : string) : (unit, string) result =
  let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  let types : (string, string) Hashtbl.t = Hashtbl.create 32 in
  let check_name lineno name =
    if name = "" then fail "line %d: empty metric name" lineno;
    (match name.[0] with
    | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> ()
    | _ -> fail "line %d: metric name %S starts with %C" lineno name name.[0]);
    String.iter
      (fun c -> if not (is_name_char c) then fail "line %d: bad char %C in metric name %S" lineno c name)
      name
  in
  let check_label_name lineno name =
    if name = "" then fail "line %d: empty label name" lineno;
    String.iter
      (fun c ->
        if not (is_name_char c) || c = ':' then
          fail "line %d: bad char %C in label name %S" lineno c name)
      name
  in
  (* parse `k="v",k2="v2"` — returns list of label names *)
  let parse_labels lineno s =
    let len = String.length s in
    let names = ref [] in
    let i = ref 0 in
    let rec one () =
      let start = !i in
      while !i < len && s.[!i] <> '=' do incr i done;
      if !i >= len then fail "line %d: label without '='" lineno;
      let name = String.sub s start (!i - start) in
      check_label_name lineno name;
      names := name :: !names;
      incr i;
      if !i >= len || s.[!i] <> '"' then fail "line %d: label value not quoted" lineno;
      incr i;
      let closed = ref false in
      while not !closed do
        if !i >= len then fail "line %d: unterminated label value" lineno;
        (match s.[!i] with
        | '\\' ->
          if !i + 1 >= len then fail "line %d: dangling escape" lineno;
          (match s.[!i + 1] with
          | '\\' | '"' | 'n' -> ()
          | c -> fail "line %d: bad escape '\\%c'" lineno c);
          incr i
        | '"' -> closed := true
        | _ -> ());
        incr i
      done;
      if !i < len then begin
        if s.[!i] <> ',' then fail "line %d: junk after label value" lineno;
        incr i;
        if !i >= len then fail "line %d: trailing comma in labels" lineno;
        one ()
      end
    in
    if len > 0 then one ();
    List.rev !names
  in
  let family_of_sample name =
    (* map histogram suffixes back to their family when one is declared *)
    let strip suffix =
      let sl = String.length suffix and nl = String.length name in
      if nl > sl && String.sub name (nl - sl) sl = suffix then
        Some (String.sub name 0 (nl - sl))
      else None
    in
    let try_hist suffix =
      match strip suffix with
      | Some fam when Hashtbl.find_opt types fam = Some "histogram" -> Some (fam, suffix)
      | _ -> None
    in
    match try_hist "_bucket" with
    | Some x -> Some x
    | None -> (
      match try_hist "_sum" with
      | Some x -> Some x
      | None -> (
        match try_hist "_count" with
        | Some x -> Some x
        | None ->
          if Hashtbl.mem types name then Some (name, "") else None))
  in
  try
    let lines = String.split_on_char '\n' doc in
    let saw_eof = ref false in
    let samples = ref 0 in
    List.iteri
      (fun idx line ->
        let lineno = idx + 1 in
        if !saw_eof && line <> "" then fail "line %d: content after # EOF" lineno
        else if line = "" then ()
        else if line = "# EOF" then saw_eof := true
        else if String.length line >= 7 && String.sub line 0 7 = "# HELP " then begin
          match String.index_from_opt line 7 ' ' with
          | None -> fail "line %d: # HELP without help text" lineno
          | Some sp -> check_name lineno (String.sub line 7 (sp - 7))
        end
        else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
          match String.index_from_opt line 7 ' ' with
          | None -> fail "line %d: # TYPE without a type" lineno
          | Some sp ->
            let name = String.sub line 7 (sp - 7) in
            check_name lineno name;
            let ty = String.sub line (sp + 1) (String.length line - sp - 1) in
            if not (List.mem ty [ "counter"; "gauge"; "histogram" ]) then
              fail "line %d: unknown type %S for %S" lineno ty name;
            if Hashtbl.mem types name then fail "line %d: duplicate # TYPE for %S" lineno name;
            Hashtbl.replace types name ty
        end
        else if String.length line >= 1 && line.[0] = '#' then
          fail "line %d: unknown comment %S" lineno line
        else begin
          (* sample: name[{labels}] value *)
          let name_end = ref 0 in
          let len = String.length line in
          while !name_end < len && is_name_char line.[!name_end] do incr name_end done;
          let name = String.sub line 0 !name_end in
          check_name lineno name;
          let rest = String.sub line !name_end (len - !name_end) in
          let labels, value_part =
            if rest <> "" && rest.[0] = '{' then begin
              match String.index_opt rest '}' with
              | None -> fail "line %d: unterminated label set" lineno
              | Some close ->
                ( parse_labels lineno (String.sub rest 1 (close - 1)),
                  String.sub rest (close + 1) (String.length rest - close - 1) )
            end
            else ([], rest)
          in
          if String.length value_part < 2 || value_part.[0] <> ' ' then
            fail "line %d: missing value separator" lineno;
          let value = String.sub value_part 1 (String.length value_part - 1) in
          (match float_of_string_opt value with
          | Some _ -> ()
          | None -> fail "line %d: unparsable value %S" lineno value);
          (match family_of_sample name with
          | None -> fail "line %d: sample %S has no # TYPE declaration" lineno name
          | Some (_fam, "_bucket") ->
            if not (List.mem "le" labels) then
              fail "line %d: histogram bucket without le label" lineno
          | Some _ -> ());
          incr samples
        end)
      lines;
    if not !saw_eof then fail "missing # EOF terminator";
    if !samples = 0 then fail "no samples in exposition";
    Ok ()
  with Bad msg -> Error msg

(* ---------- address parsing ---------- *)

type addr =
  | Tcp of Unix.inet_addr * int
  | Unix_sock of string

let parse_addr (s : string) : (addr, string) result =
  if String.length s > 5 && String.sub s 0 5 = "unix:" then
    Ok (Unix_sock (String.sub s 5 (String.length s - 5)))
  else
    match String.rindex_opt s ':' with
    | None -> Error (Printf.sprintf "bad metrics address %S (want HOST:PORT or unix:PATH)" s)
    | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | None -> Error (Printf.sprintf "bad port %S in metrics address" port)
      | Some port when port < 0 || port > 65535 ->
        Error (Printf.sprintf "port %d out of range" port)
      | Some port -> (
        if host = "" || host = "localhost" then Ok (Tcp (Unix.inet_addr_loopback, port))
        else
          match Unix.inet_addr_of_string host with
          | ip -> Ok (Tcp (ip, port))
          | exception _ -> (
            match Unix.gethostbyname host with
            | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
              Error (Printf.sprintf "cannot resolve host %S" host)
            | { Unix.h_addr_list; _ } -> Ok (Tcp (h_addr_list.(0), port)))))

(* ---------- the default scrape page ---------- *)

(* Process-wide scrape bookkeeping: an events/sec rate derived from
   [Snapshot.diff] of the summed live [events.total] counters between
   consecutive scrapes, plus scrape and uptime meta-series. *)
type sampler = {
  mutable last : (float * Snapshot.t) option;
  mutable scrapes : int;
  started : float;
}

let make_sampler () = { last = None; scrapes = 0; started = Unix.gettimeofday () }

let total_events snaps =
  List.fold_left
    (fun acc (_, snap) ->
      match Snapshot.get_int snap "events.total" with
      | Some n -> acc + n
      | None -> acc)
    0 snaps

let sample (s : sampler) : string =
  let now = Unix.gettimeofday () in
  s.scrapes <- s.scrapes + 1;
  let live = Live.snapshots () in
  let global = Registry.global in
  let series =
    of_snapshot (Registry.snapshot global)
    @ List.concat_map (fun (labels, snap) -> of_snapshot ~labels snap) live
  in
  let progress : Snapshot.t =
    [ Snapshot.entry "events.total" (Snapshot.Int (total_events live)) ]
  in
  let rate =
    match s.last with
    | Some (t0, before) when now > t0 ->
      let d = Snapshot.diff ~before ~after:progress in
      (match Snapshot.get_int d "events.total" with
      (* live registries detach as runs finish (a multi-file check
         resets the per-run total between files), so the delta can go
         negative across a run boundary — report an idle rate, not a
         negative one *)
      | Some delta -> float_of_int (max delta 0) /. (now -. t0)
      | None -> 0.)
    | _ -> 0.
  in
  s.last <- Some (now, progress);
  let meta =
    [
      counter_series ~family:"aerodrome_exporter_scrapes" ~help:"exporter.scrapes" s.scrapes;
      gauge_series ~family:"aerodrome_exporter_uptime_seconds" ~help:"exporter.uptime"
        (now -. s.started);
      gauge_series ~family:"aerodrome_scrape_events_per_sec" ~help:"scrape.events_per_sec" rate;
    ]
  in
  render (series @ meta)

(* ---------- HTTP/1.0 responder ---------- *)

type server = {
  sock : Unix.file_descr;
  stop_w : Unix.file_descr;
  domain : unit Domain.t;
  bound : string;
  cleanup : unit -> unit;
}

let http_response ~status ~body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
     Content-Length: %d\r\nConnection: close\r\n\r\n%s"
    status (String.length body) body

let handle_client page fd =
  (* Requests are one small read away in practice; a partial first read
     only risks a 400 for a torn request line, which curl never sends. *)
  let buf = Bytes.create 4096 in
  let n = try Unix.read fd buf 0 4096 with Unix.Unix_error _ -> 0 in
  let request = Bytes.sub_string buf 0 (max n 0) in
  let reply =
    match String.index_opt request '\r' with
    | None -> http_response ~status:"400 Bad Request" ~body:"bad request\n"
    | Some eol -> (
      let line = String.sub request 0 eol in
      match String.split_on_char ' ' line with
      | [ "GET"; path; _version ] ->
        if path = "/metrics" || path = "/" then
          http_response ~status:"200 OK" ~body:(page ())
        else http_response ~status:"404 Not Found" ~body:"not found\n"
      | _ :: _ :: _ -> http_response ~status:"405 Method Not Allowed" ~body:"only GET\n"
      | _ -> http_response ~status:"400 Bad Request" ~body:"bad request\n")
  in
  (try
     let len = String.length reply in
     let off = ref 0 in
     while !off < len do
       off := !off + Unix.write_substring fd reply !off (len - !off)
     done
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop sock stop_r page =
  let running = ref true in
  while !running do
    match Unix.select [ sock; stop_r ] [] [] (-1.) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
      if List.mem stop_r readable then running := false
      else if List.mem sock readable then begin
        match Unix.accept sock with
        | fd, _ -> handle_client page fd
        | exception Unix.Unix_error _ -> ()
      end
  done

(* [serve ?page addr] starts the responder on a fresh domain; [?page]
   overrides the default global+live sampler (tests inject canned
   expositions).  Returns the server or a human-readable error (bad
   address, bind failure). *)
let serve ?page (addr : string) : (server, string) result =
  match parse_addr addr with
  | Error e -> Error e
  | Ok parsed -> (
    let page = match page with Some p -> p | None -> let s = make_sampler () in fun () -> sample s in
    let make () =
      match parsed with
      | Tcp (ip, port) ->
        let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt sock Unix.SO_REUSEADDR true;
        Unix.bind sock (Unix.ADDR_INET (ip, port));
        Unix.listen sock 16;
        let bound =
          match Unix.getsockname sock with
          | Unix.ADDR_INET (ip, port) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr ip) port
          | _ -> addr
        in
        (sock, bound, fun () -> ())
      | Unix_sock path ->
        (try if Sys.file_exists path then Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
        let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind sock (Unix.ADDR_UNIX path);
        Unix.listen sock 16;
        (sock, "unix:" ^ path, fun () -> try Unix.unlink path with Unix.Unix_error _ -> ())
    in
    match make () with
    | exception Unix.Unix_error (err, _, _) ->
      Error (Printf.sprintf "cannot serve metrics on %s: %s" addr (Unix.error_message err))
    | sock, bound, cleanup ->
      let stop_r, stop_w = Unix.pipe () in
      Live.enable ();
      let domain = Domain.spawn (fun () -> accept_loop sock stop_r page) in
      Ok { sock; stop_w; domain; bound; cleanup })

let bound (t : server) = t.bound

let stop (t : server) =
  (try ignore (Unix.write_substring t.stop_w "x" 0 1) with Unix.Unix_error _ -> ());
  Domain.join t.domain;
  Live.disable ();
  (try Unix.close t.sock with Unix.Unix_error _ -> ());
  (try Unix.close t.stop_w with Unix.Unix_error _ -> ());
  t.cleanup ()

(* ---------- a tiny blocking GET client ---------- *)

(* Used by `rapid scrape` (hermetic cram tests without curl) and by the
   bench harness's scraper domain. *)
let fetch ?(path = "/metrics") (addr : string) : (string, string) result =
  match parse_addr addr with
  | Error e -> Error e
  | Ok parsed -> (
    let connect () =
      match parsed with
      | Tcp (ip, port) ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (ip, port));
        fd
      | Unix_sock p ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX p);
        fd
    in
    match connect () with
    | exception Unix.Unix_error (err, _, _) ->
      Error (Printf.sprintf "cannot connect to %s: %s" addr (Unix.error_message err))
    | fd -> (
      let request = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      try
        ignore (Unix.write_substring fd request 0 (String.length request));
        let b = Buffer.create 4096 in
        let chunk = Bytes.create 4096 in
        let rec drain () =
          let n = Unix.read fd chunk 0 4096 in
          if n > 0 then begin
            Buffer.add_subbytes b chunk 0 n;
            drain ()
          end
        in
        drain ();
        Unix.close fd;
        let response = Buffer.contents b in
        (* split headers from body; verify the status line says 200 *)
        let sep = "\r\n\r\n" in
        let rec find i =
          if i + 4 > String.length response then None
          else if String.sub response i 4 = sep then Some i
          else find (i + 1)
        in
        (match find 0 with
        | None -> Error "malformed HTTP response"
        | Some i ->
          let headers = String.sub response 0 i in
          let body = String.sub response (i + 4) (String.length response - i - 4) in
          let status_ok =
            match String.index_opt headers ' ' with
            | Some sp when String.length headers >= sp + 4 ->
              String.sub headers (sp + 1) 3 = "200"
            | _ -> false
          in
          if status_ok then Ok body
          else
            Error
              (Printf.sprintf "HTTP error: %s"
                 (match String.index_opt headers '\r' with
                 | Some e -> String.sub headers 0 e
                 | None -> headers)))
      with Unix.Unix_error (err, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error (Printf.sprintf "scrape failed: %s" (Unix.error_message err))))
