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

    {b Generations.}  An entry's first file is [<enc>.summary]
    (generation 0); every later persist writes generation [g + 1] as
    [<enc>@<g+1>.summary], a name no file has yet, through a [.tmp]
    sibling renamed onto it.  Replacing a file that holds data makes the
    filesystem free its blocks, which on ext4 with online [discard] cost
    ~40 ms per persist; a fresh name costs ~0.03 ms.  The writer never
    fsyncs, never truncates and never renames over a file.  {!commit},
    run off the serving thread, fsyncs an entry's newest generation and
    then the directory, and only then unlinks the generations it
    replaces.  A reopen ({!load_dir}) serves each entry's highest
    generation that loads, skipping and reporting a newer one that does
    not.

    {b What a crash can cost.}  A crash of the writing process leaves the
    previous generation, the new one, or both, and the reopen serves the
    newest that loads: never a mix.  A power loss or kernel crash can
    also lose or tear the generations written since the last {!commit},
    because nothing fsyncs them before it; a v2 file's declared payload
    length and checksum then make {!load} return [Error] and {!load_dir}
    skip and report it, and the entry serves its last committed
    generation.  Since {!commit} unlinks a generation only after a newer
    one is durable, an entry that has been committed once always keeps a
    valid file.  Reads are total: any malformed file yields [Error],
    never an exception. *)

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

val file_name : ?gen:int -> string -> string
(** Injective mapping from entry name and generation (default 0) to
    snapshot file name: bytes outside [[A-Za-z0-9._-]] are
    percent-encoded ([@] included, so [a@1] becomes [a%401]), then a
    generation [g > 0] appends [@g], then {!extension} is appended — so
    names like ["n(20)/kernel"] become filesystem-safe, and generation 0
    is the file name every entry had before generations existed.
    @raise Invalid_argument on a negative generation. *)

val decode_generation : string -> (string * int) option
(** Inverse of {!file_name}: [Some (name, gen)] when the argument is a
    well-formed snapshot file name — the {!extension} suffix stripped,
    an optional [@g] generation in the decimal {!file_name} writes
    ([g >= 1], no leading zero), [%XX] escapes decoded — and [None]
    otherwise.  Total: it never raises. *)

val decode_file_name : string -> string option
(** The entry name of {!decode_generation}, for every generation, so
    directory scans (and the shard-layout migration in
    [Catalog.Service.open_sharded]) can recover entry names without
    loading file contents. *)

val path : ?gen:int -> dir:string -> string -> string
(** [path ?gen ~dir name] is the path of [name]'s generation [gen]
    (default 0) inside [dir]. *)

val save : ?gen:int -> dir:string -> entry -> unit
(** Write the entry's generation [gen] (default 0) in the v2 format,
    through a [.tmp] sibling renamed onto {!path}.  A catalog service
    always passes a generation no file has, so the rename replaces
    nothing and nothing waits for the disk; called on an existing file
    it replaces that file.  No fsync: {!commit} makes a generation
    durable (see the module doc for what a crash can cost).  A failed
    write removes its temp file when it can and leaves every existing
    generation as it was.
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

type generations = {
  g_name : string;  (** the entry name its file names encode *)
  g_top : int;
      (** its highest generation on disk, whether that file loads or
          not; a writer continues at [g_top + 1], so it never renames
          over a torn file *)
  g_served : (int * entry) option;
      (** its newest generation that loads, with the generation number;
          [None] when none does *)
}
(** One entry's files, as {!load_generations} found them. *)

val load_generations :
  ?shard:int -> dir:string -> unit -> generations list * (string * string) list
(** Scan [dir] for [*{!extension}] files, group them by entry, and load
    each entry's generations newest first until one loads: that one is
    served, each newer one that failed is returned as a [(file, error)]
    pair saying which generation serves instead, and the older ones are
    not read (they are superseded files the janitor had not yet
    unlinked).  A file that loads but whose header names another entry
    counts as failed.  A [.summary] file whose name {!decode_generation}
    rejects is reported and left in place.  Orphaned [*{!tmp_extension}]
    files from writes that died before their rename are swept (deleted)
    first and reported in the same list — the skip-and-report recovery
    contract.  Entries come in file-name order of their first file.
    When [dir] is one shard of a partitioned catalog, pass [shard] and
    every message is prefixed ["shard N: "] — with several directories
    each holding an [a.summary], an unprefixed message would not say
    which copy was skipped (see [docs/SHARDING.md]).
    @raise Sys_error if [dir] itself cannot be read. *)

val load_dir : ?shard:int -> dir:string -> unit -> entry list * (string * string) list
(** {!load_generations} reduced to the served entries: each entry's
    newest generation that loads, alongside the same skip list. *)

val delete : dir:string -> string -> unit
(** Remove every generation of [name] from [dir].
    @raise Sys_error if [dir] cannot be read or a file that still exists
    cannot be removed. *)

val commit : dir:string -> (string * int) list -> unit
(** [commit ~dir written] makes written generations durable and retires
    what they replace: for each entry in [written], fsync its newest
    listed generation, then fsync [dir], and only then unlink every
    older generation of that entry.  An entry whose generation is gone
    (dropped since) or cannot be fsynced keeps all its files.  Meant for
    a thread that is not serving: the fsyncs wait for the disk, and the
    first fsync after an unlink waits for the blocks to be freed.
    Never raises. *)
