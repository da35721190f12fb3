(** On-disk snapshots of catalog entries.

    Every catalog entry persists as one file inside the catalog
    directory: text header lines (the [selest-catalog v2] magic, name,
    build spec, staleness state, an optional provenance line, and a
    [payload <kind> <bytes>] line) followed by the summary as raw
    little-endian IEEE-754 words ([Selest.Stored.any_to_binary]) and an
    8-byte checksum of every byte before it.  Loading one decodes the
    summary in a single pass over the bytes, with no float parsing.
    Files in the legacy text format [selest-catalog v1] still load, and
    {!save} rewrites each one as v2 the next time its entry persists.
    The full format, with a worked example, is documented in
    [docs/CATALOG.md].

    Writes go to a [.tmp] sibling that is then renamed into place.  The
    rename is atomic against a crash of the writing process: a reopen
    sees the previous snapshot or the new one, never a mix.  {!save} does
    not fsync, so after a power loss or kernel crash a file can still be
    torn or hold stale blocks; a v2 file's declared payload length and
    checksum then make {!load} return [Error] and {!load_dir} skip and
    report the file, rather than misread it.  Reads are total: any
    malformed file yields [Error], never an exception. *)

type entry = {
  name : string;  (** catalog entry name; must not contain newlines *)
  spec : string;
      (** build spec in the syntax of the entry's kind —
          [Selest.Estimator.spec_of_string] for range summaries,
          [Selest.Stored.rect_spec_of_string] for rect,
          [Selest.Stored.join_spec_of_string] for join (kept so a stale
          entry can be rebuilt) *)
  inserts : int;  (** records inserted since the summary was built *)
  stale : bool;  (** true once invalidated or past the rebuild budget *)
  provenance : string option;
      (** optional free-form audit line recording where the spec came
          from (e.g. the advisor's recommendation string behind
          [catalog build --spec auto]); must not contain newlines.
          Written as an optional [provenance] header line, so snapshots
          without one — including every v1 file written before the line
          existed — still parse, and a file saved with [None] simply has
          no such line *)
  summary : Selest.Stored.any;
      (** the serving payload; its own header line names the kind *)
}

val extension : string
(** [".summary"] — the suffix of every snapshot file. *)

val file_name : string -> string
(** Injective mapping from entry name to snapshot file name: bytes outside
    [[A-Za-z0-9._-]] are percent-encoded, then {!extension} is appended,
    so names like ["n(20)/kernel"] become filesystem-safe. *)

val decode_file_name : string -> string option
(** Inverse of {!file_name}: [Some name] when the argument is a
    well-formed percent-encoded snapshot file name (the {!extension}
    suffix stripped, [%XX] escapes decoded), [None] otherwise.  Total —
    it never raises — so directory scans (and the shard-layout migration
    in [Catalog.Service.open_sharded]) can recover entry names without
    loading file contents. *)

val path : dir:string -> string -> string
(** [path ~dir name] is the snapshot path of [name] inside [dir]. *)

val save : dir:string -> entry -> unit
(** Write (or replace) the entry's snapshot, always in the v2 format,
    through a temp file and a rename (see the module doc for what that
    does and does not promise).
    @raise Invalid_argument if the name, spec or provenance contains a
    newline.
    @raise Sys_error on I/O failure. *)

val load : path:string -> (entry, string) result
(** Read one snapshot file, v2 or legacy v1.  [Error] describes the first
    problem found (unreadable file, wrong magic, bad header line, a
    payload length that does not match the file, checksum mismatch,
    summary fields the kind's validator rejects, unparseable spec) and
    it never raises on malformed content.  Any truncation or any single
    changed byte of a v2 file is an [Error]. *)

val tmp_extension : string
(** [".summary.tmp"] — the suffix of in-flight {!save} temp files; one
    left on disk marks a write that died before its rename. *)

val load_dir : ?shard:int -> dir:string -> unit -> entry list * (string * string) list
(** Scan [dir] for [*{!extension}] files (sorted by file name) and load
    each: returns the entries that parsed alongside [(file, error)] pairs
    for the ones that did not — the skip-and-report recovery contract.
    Orphaned [*{!tmp_extension}] files from writes that died before their
    rename are swept (deleted) first and reported in the same skip list.
    When [dir] is one shard of a partitioned catalog, pass [shard] and
    every message is prefixed ["shard N: "] — with several directories
    each holding an [a.summary], an unprefixed message would not say
    which copy was skipped (see [docs/SHARDING.md]).
    @raise Sys_error if [dir] itself cannot be read. *)

val delete : dir:string -> string -> unit
(** Remove the snapshot of [name] from [dir], if present. *)
