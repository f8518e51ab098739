(** Compact binary trace format with streaming access.

    The paper's logs reach billions of events (hundreds of gigabytes as
    text); RAPID stores them in a binary encoding.  This module provides
    ours: a small header (magic, version, domain sizes, event count)
    followed by one variable-length record per event — an opcode byte and
    LEB128-encoded ids.  Typical traces encode in 2–4 bytes per event,
    an order of magnitude smaller than the text format.

    Version 2 files additionally carry a {b last-use footer} after the
    event records: one varint per variable and per lock giving the index
    of its final access (see {!Lifetime}).  The footer ends with an
    8-byte little-endian length and a trailing magic, so
    {!read_last_use} can locate it by seeking from the end of the file
    without decoding the events.  Version 3 files extend the footer with
    {b accessor statistics} (see {!Varstats}): per variable an
    accessor-thread bitmask and a write count, per lock an
    accessor-thread bitmask, which lets {!read_stats} hand the
    {!Prefilter} its exact-mode oracle without a pre-scan.  Version 1
    and 2 files (no or shorter footer) remain fully readable.

    Reading is streaming: {!fold_packed} decodes the memory-mapped file
    one block of records at a time, so a checker can analyze a file without
    materializing the trace ([Analysis.Runner.run_file] does).  Every
    reader of the event records ({!fold_packed}, {!read_packed},
    {!read_file}) decodes through one block decoder. *)


exception Corrupt of string
(** Raised by readers on malformed input (bad magic, truncated record,
    unknown opcode, id overflow, damaged footer). *)

val magic : string
(** The 8-byte version-1 file magic, ["AERODRM1"] (no footer). *)

val magic_v2 : string
(** The 8-byte version-2 file magic, ["AERODRM2"] (last-use footer). *)

val magic_v3 : string
(** The 8-byte version-3 file magic, ["AERODRM3"] (last-use + accessor
    statistics footer). *)

val footer_magic : string
(** The 8-byte trailer ending a version-2/3 file, ["AERODRMF"]. *)

type header = {
  threads : int;
  locks : int;
  vars : int;
  events : int;
  version : int;  (** 1, 2 or 3 *)
  last_use : bool;  (** does the file carry a last-use footer? *)
  stats : bool;  (** does the footer carry accessor statistics? *)
}

val write_file : ?last_use:bool -> ?stats:bool -> string -> Trace.t -> unit
(** Serialize a trace.  Symbol tables are not stored (ids only).  With
    the defaults the file is version 3 (last-use footer + accessor
    statistics).  [~stats:false] writes version 2; [~last_use:false]
    reproduces the version-1 format byte for byte (implies no
    statistics). *)

val write_channel : ?last_use:bool -> ?stats:bool -> out_channel -> Trace.t -> unit

val read_header : string -> header
(** Header of a binary trace file.  @raise Corrupt *)

val read_file : string -> Trace.t
(** Materialize the whole trace: {!fold_packed} with each word boxed.
    @raise Corrupt, also on ids beyond the packed ranges *)

val read_footer :
  ?last_use:bool -> ?stats:bool -> string -> Lifetime.t option * Varstats.t option
(** The footer of a version-2/3 file, decoded once from the file's
    mapping, by seeking from its end: the last-use index (with
    [~last_use], default [true]) and the accessor statistics (with
    [~stats], default [true]; version 3 only).  A section not asked for
    is still validated — ranges, truncation, length and magic — but not
    materialized.  [(None, None)] for version-1 files.  Decode it once
    per run when both halves are needed.
    @raise Corrupt if the footer is truncated or inconsistent. *)

val read_last_use : string -> Lifetime.t option
(** The last-use index of a version-2/3 file, read by seeking to the
    footer — O(vars + locks), independent of the event count.  [None]
    for version-1 files.  @raise Corrupt if the footer is truncated or
    inconsistent. *)

val read_stats : string -> Varstats.t option
(** The accessor statistics of a version-3 file, read by seeking to the
    footer.  [None] for version-1/2 files.  @raise Corrupt if the footer
    is truncated or inconsistent. *)

val is_binary : string -> bool
(** Does the file start with {!magic}, {!magic_v2} or {!magic_v3}?
    (Used by the CLI to auto-detect the format.) *)

(** {1 Zero-copy packed ingestion}

    The packed readers decode the event section straight into {!Packed}
    words: the file is memory-mapped ([Unix.map_file]) and records are
    decoded in place — no read syscalls past the page cache and no
    per-event heap allocation between the file and a checker's
    [feed_packed] entry.  The input must be a regular file: a FIFO or
    special file maps as 0 bytes and fails as a truncated header, and a
    file that cannot be mapped raises [Corrupt]. *)

val fold_packed : string -> init:'a -> f:('a -> int -> 'a) -> header * 'a
(** [fold_packed path ~init ~f] folds [f] over the file's events as
    packed words, in order, from the memory-mapped file.  Records are
    decoded a block at a time; on a corrupt record [f] has seen exactly
    the words in front of it when [Corrupt] is raised.
    Ids beyond the packed ranges ({!Packed.max_tid}/{!Packed.max_target})
    raise [Corrupt]; callers gate on {!Packed.fits} against the header
    before choosing this path.  Every [Corrupt] message starts with
    [path].  @raise Corrupt
    @raise Sys_error when the file cannot be opened *)

val read_packed : string -> header * Packed.Arena.t
(** Materialize the whole event section as a packed arena, decoded
    straight into its chunks by the same decoder as {!fold_packed}, with
    the same checks and the same ingestion counters.
    @raise Corrupt *)

(**/**)

val write_packed_slice :
  string -> threads:int -> locks:int -> vars:int -> events:int ->
  ((int -> unit) -> unit) -> unit
(** [write_packed_slice path ~threads ~locks ~vars ~events iter]
    streams the packed words [iter] hands to its callback into a
    stand-alone version-1 binary trace whose header keeps the source
    trace's id domains (so ids in the slice stay meaningful) — a
    violation witness slice.  Memory stays one write buffer, whatever
    the slice length.
    @raise Invalid_argument unless [iter] hands over exactly [events]
    words. *)
