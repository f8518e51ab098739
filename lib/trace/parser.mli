(** Parser and printer for the textual trace format.

    The format follows RAPID's [.std] logs: one event per line,
    [thread|operation] with an optional third [|location] field that is
    ignored.  Operations are [r(x)], [w(x)], [acq(l)], [rel(l)], [fork(t)],
    [join(t)], [begin] ([⊲]) and [end] ([⊳]).  Thread, lock and variable
    names are arbitrary tokens (no [|], [(], [)] or whitespace) and are
    interned to dense ids in order of first appearance; the resulting
    {!Trace.Symbols.t} is attached to the trace.  Blank lines and lines
    starting with [#] are skipped.

    Example:
    {v
    # trace rho2 from the paper
    t1|begin
    t2|begin
    t1|w(x)
    t2|r(x)|42
    t2|w(y)
    t1|r(y)
    t1|end
    t2|end
    v} *)

type error = { line : int; message : string }

exception Parse_error of error

val parse_string : string -> (Trace.t, error) result
val parse_lines : string Seq.t -> (Trace.t, error) result

val parse_file : string -> (Trace.t, error) result
(** Reads the whole file to EOF, so a pipe works too; I/O exceptions
    propagate.  Like {!read_packed}, refuses a first line that starts with
    a binary trace's magic. *)

val parse_string_exn : string -> Trace.t
(** @raise Parse_error *)

val parse_file_exn : string -> Trace.t

type packed = {
  arena : Packed.Arena.t;  (** every event, in order *)
  symbols : Trace.Symbols.t;
      (** the interned names; their counts are the domain sizes *)
  lifetime : Lifetime.t;  (** final access of every variable and lock *)
  stats : Varstats.t option;  (** accessor statistics, when asked for *)
  slow_lines : int;
      (** lines the canonical fast path did not decode (blank, comment or
          otherwise non-canonical) *)
}

val read_packed : ?stats:bool -> ?checkpoint:(unit -> unit) -> string -> packed
(** [read_packed path] reads the file once, decoding each event straight
    into a {!Packed.Arena}: memory is the arena (8 bytes per event) plus
    the symbol tables and one read window.  Events, ids, symbols and
    errors are exactly those of {!parse_file}.

    The file is read through one reusable byte window, and each complete
    line in it is decoded in place by the loop that finds its end.  A
    canonical line — [name|kw(name)] or [name|begin], [end], [b], [e],
    with a lower-case keyword, an optional [|...] third field, ending in
    [\n] or [\r\n] — allocates nothing once its names are known: a name
    of at most 7 bytes is looked up by its bytes packed into one int, a
    longer one by hashing its bytes in the window.  Every other line
    (padded, commented, blank, upper-case, malformed) goes through the
    per-line parser on the same interners; [slow_lines] counts them, as
    does the process-wide [ingest.text.slow_lines] counter.

    The last-use index is always built, and with [~stats:true] the
    {!Varstats} accessor statistics too, both noted as each event is
    decoded: there is no second pass over the arena.  [checkpoint] runs
    after every 4096th line; an exception it raises aborts the scan and
    propagates.  I/O exceptions propagate.
    @raise Parse_error on a malformed line, on a line whose new name
    would overflow the packed id ranges ({!Packed.fits}), and on a first
    line that starts with a binary trace's magic (a binary trace piped
    in, which only {!Binfmt} can read, from a regular file). *)

val fold_file :
  ?last_use:(Lifetime.t -> unit) ->
  ?stats:(Varstats.t -> unit) ->
  string ->
  init:(threads:int -> locks:int -> vars:int -> 'a) ->
  f:('a -> Event.t -> 'a) ->
  ('a, error) result
(** [fold_file path ~init ~f] reads the file once with {!read_packed},
    never materializing a {!Trace.t}: memory is the arena (8 bytes per
    event) plus the symbol tables.  Because a text trace only reveals its
    domain sizes once fully scanned, [init] is called with the domain
    sizes (e.g. to create a checker) after the scan, and [f] is then
    folded over the arena's events.  I/O exceptions propagate.

    [last_use] receives the {!Lifetime} index (final access of every
    variable and lock) and [stats] the {!Varstats} accessor statistics
    (the exact-mode prefilter oracle), both noted during the scan, before
    [init] runs. *)

val fold_file_exn :
  ?last_use:(Lifetime.t -> unit) ->
  ?stats:(Varstats.t -> unit) ->
  string ->
  init:(threads:int -> locks:int -> vars:int -> 'a) ->
  f:('a -> Event.t -> 'a) ->
  'a
(** @raise Parse_error *)

val to_string : Trace.t -> string
(** Renders a trace in the format above, using its symbol table when
    present and [T0]/[L0]/[V0]-style names otherwise.  [parse_string_exn]
    of the result is the identity on events. *)

val to_channel : out_channel -> Trace.t -> unit
val to_file : string -> Trace.t -> unit
val pp_error : Format.formatter -> error -> unit
