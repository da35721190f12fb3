(** The estimator catalog: named statistics summaries served from a
    bounded cache over a snapshot directory.

    This is the layer a plan-time consumer talks to.  Each entry is a
    compact [Selest.Stored] summary built once from a sample (ANALYZE),
    persisted as generation files ({!Snapshot}), kept hot in an LRU
    cache ({!Lru}) while queried, tracked for staleness as the underlying
    relation changes, and rebuilt from a fresh sample when its insert
    budget runs out.  Queries are answered sequentially in the calling
    thread; a served deployment gets its parallelism from shards
    ({!open_sharded}), one service per dispatcher domain.

    The full entry lifecycle (build → snapshot → serve → stale → rebuild),
    the on-disk format and cache-tuning guidance are documented in
    [docs/CATALOG.md].

    A service is single-owner: the cache mutates on reads.  Every persist
    writes the entry's next generation under a fresh name on the owner's
    thread; a janitor systhread the service starts on demand fsyncs it
    and unlinks the generation it replaces, then exits once it has
    nothing left to do.  {!flush} waits for it. *)

type config = {
  capacity : int;  (** max summaries resident in the cache (default 32) *)
  rebuild_after_inserts : int;
      (** an entry turns stale once this many records changed since its
          summary was built (default 10_000) *)
  cells : int;  (** grid resolution of newly built summaries (default 256) *)
}

val default_config : config
(** [{ capacity = 32; rebuild_after_inserts = 10_000; cells = 256 }]. *)

type t

val open_dir : ?config:config -> ?shard:int -> string -> t * (string * string) list
(** [open_dir dir] opens (creating [dir] if missing) the catalog persisted
    there and indexes every entry at its newest generation that loads
    ({!Snapshot.load_generations}).  Corrupt snapshot files are skipped
    and returned as [(file, error)] pairs — recovery never fails the
    catalog, and the survivors keep serving; an entry whose newest
    generation is torn serves its previous one.  Orphaned
    [{!Snapshot.tmp_extension}] files from writes that died mid-rename are
    swept and reported the same way.  The cache starts cold;
    summaries load on first access.  [shard] tags the service as one
    shard of a partitioned catalog: skip messages carry a ["shard N: "]
    prefix and its telemetry gains a [shard] label (callers normally get
    this via {!open_sharded} rather than passing it themselves).
    @raise Invalid_argument on a non-positive [config] field.
    @raise Sys_error if [dir] cannot be created or read. *)

val shard_of_name : shards:int -> string -> int
(** The shard (in [0 .. shards-1]) that owns an entry name: a stable
    FNV-1a hash folded modulo [shards].  Stable across processes and
    OCaml versions — it determines the directory an entry persists in —
    and [shards = 1] always maps to [0].  Both the on-disk layout of
    {!open_sharded} and the request router in [Server.Engine] use this
    function, which is what makes them agree.  Allocation-free: the
    engine calls it on every request it routes.
    @raise Invalid_argument if [shards < 1]. *)

val shard_dir_name : int -> string
(** [shard_dir_name i] is ["shard-<i>"] — the subdirectory of a sharded
    catalog root that holds shard [i]'s snapshots ([docs/SHARDING.md]
    documents the layout). *)

val open_sharded :
  ?config:config -> shards:int -> string -> t array * (string * string) list
(** [open_sharded ~shards dir] opens [dir] as a hash-partitioned catalog
    of [shards] independent services — element [i] of the returned array
    owns the entries with [{!shard_of_name} ~shards name = i], persisted
    under [dir/shard-<i>/], with its own LRU cache (so total cache
    capacity is [config.capacity] per shard).  Before opening, the
    on-disk layout is migrated in place: snapshot files found in the flat
    v1 layout (or in the shard directories of a different previous shard
    count) are renamed into the directory the requested partitioning
    assigns them, so the same [dir] can be served at any shard count and
    re-opened at another.  [shards = 1] is exactly {!open_dir} on the
    flat directory — same layout, same service, bit-identical serving —
    with any shard-*/ files migrated back flat first.  The skip list
    aggregates migration failures and every shard's load skips, each
    tagged with its shard.
    @raise Invalid_argument if [shards < 1] or on a non-positive
    [config] field.
    @raise Sys_error if [dir] cannot be created or read. *)

val dir : t -> string
(** The snapshot directory this service persists to. *)

val config : t -> config
(** The configuration the service was opened with. *)

val names : t -> string list
(** Names of every indexed entry, sorted. *)

val mem : t -> string -> bool
(** Whether an entry of that name is indexed (resident or on disk only). *)

type info = {
  name : string;
  kind : Selest.Stored.kind;  (** range, rect or join *)
  spec : string;  (** compact spec syntax the entry was built with *)
  provenance : string option;
      (** where the spec came from, when recorded — e.g. the advisor's
          recommendation line behind [catalog build --spec auto].
          Persisted in the snapshot and preserved across rebuilds and
          adaptive swaps *)
  cells : int;
      (** summary size: grid cells (range), [bins_x * bins_y] (rect), or
          total equi-depth buckets across both relations (join) *)
  domain : float * float;
      (** estimation domain of the summary (the x-axis domain for rect
          entries, the shared attribute domain for join entries) *)
  domain_y : (float * float) option;  (** rect entries: the y-axis domain *)
  inserts : int;  (** records changed since the summary was built *)
  stale : bool;  (** past the insert budget, or explicitly invalidated *)
  cached : bool;  (** currently resident in the LRU cache *)
}

val info : t -> string -> info option
(** Metadata of one entry ([None] if unknown); no cache activity. *)

val snapshot_file : t -> string -> string option
(** The path of the file holding the entry's served bits — its newest
    generation, which changes at every persist ([None] if unknown). *)

val infos : t -> info list
(** {!info} for every entry, sorted by name. *)

val build :
  ?provenance:string ->
  t ->
  name:string ->
  spec:string ->
  domain:float * float ->
  sample:float array ->
  (info, string) result
(** [build t ~name ~spec ~domain ~sample] fits [spec] (compact
    [Selest.Estimator.spec_of_string] syntax) on the sample, reduces it to
    a [config.cells]-cell summary, snapshots it atomically and caches it.
    An existing entry of the same name is replaced and its staleness
    reset.  [provenance] (newline-free) records where the spec came from
    — the advisor passes its recommendation line — and rides along in the
    snapshot from then on.  [Error] on an empty or newline-containing
    name, an unparseable spec, or estimator-construction failure (empty
    sample, empty domain). *)

val build_rect :
  t ->
  name:string ->
  spec:string ->
  domain_x:float * float ->
  domain_y:float * float ->
  points:(float * float) array ->
  (info, string) result
(** [build_rect t ~name ~spec ~domain_x ~domain_y ~points] builds a 2-D
    grid summary ([Selest.Stored.rect_of_points]) from a point sample and
    installs it exactly as {!build} installs a range entry.  [spec] uses
    the [Selest.Stored.rect_spec_of_string] syntax
    ([hist2d], [hist2d:B], [hist2d:BXxBY]).  Served rectangle queries
    against the entry are bit-identical to [Multidim.Hist2d] on the same
    sample — both delegate to the same [Selest.Stored] arithmetic.
    [Error] on a bad name or spec, an empty sample or an empty domain. *)

val build_join :
  t ->
  name:string ->
  spec:string ->
  domain:float * float ->
  n_r:int ->
  n_s:int ->
  sample_r:float array ->
  sample_s:float array ->
  (info, string) result
(** [build_join t ~name ~spec ~domain ~n_r ~n_s ~sample_r ~sample_s]
    builds a join summary ([Selest.Stored.join_of_samples]: one equi-depth
    histogram per relation plus the retained samples) and installs it.
    [spec] uses the [Selest.Stored.join_spec_of_string] syntax ([edh],
    [edh:BUCKETS]).  Served join estimates are bit-identical to
    [Join.Ineqjoin.estimate] on the same summary.  [Error] on a bad name
    or spec, empty samples, non-positive sizes or an empty domain. *)

val rebuild : t -> name:string -> sample:float array -> (info, string) result
(** Re-ANALYZE: {!build} with the entry's recorded spec and domain on a
    fresh sample, clearing its staleness.  [Error] on an unknown name, or
    on a rect/join entry (their samples are not one float array; rebuild
    those with {!build_rect} / {!build_join}, or let the adaptive tick
    resample them). *)

val record_inserts : t -> name:string -> int -> (unit, string) result
(** Tell the catalog the entry's relation changed by that many records
    (negative for deletes; magnitudes accumulate, mirroring
    [Selest.Maintenance]).  Once the total reaches
    [config.rebuild_after_inserts] the entry turns stale — it keeps
    answering, flagged, until {!rebuild}.  The count is persisted, so
    staleness survives restarts.  [Error] on an unknown name. *)

val sync_maintenance : t -> name:string -> Selest.Maintenance.t -> (unit, string) result
(** Mirror a live [Selest.Maintenance] wrapper's
    [Selest.Maintenance.changed_count] into the entry's staleness tracker:
    the wrapper owns the fitted estimator and sees the traffic; the
    catalog serves the summary and needs its update counts.  Overwrites
    the recorded insert count with the wrapper's.  [Error] on an unknown
    name. *)

val invalidate : t -> string -> (unit, string) result
(** Force-stale an entry: marks it (persisted) and drops its cached copy,
    so the next access reloads the snapshot and reports stale until
    {!rebuild}.  [Error] on an unknown name. *)

val drop : t -> string -> (unit, string) result
(** Remove an entry entirely: index, cache and every generation of its
    snapshot.  A later build of the same name continues above the dropped
    generations, so a janitor still retiring them never takes the new
    file.  [Error] on an unknown name. *)

val flush : t -> unit
(** Wait until every generation this service has written is durable and
    the generations they replace are unlinked: join the janitor thread,
    if one is running.  Short-lived processes call it before they exit
    (an exit without it loses no valid file, only durability and
    cleanup), and the serving engine calls it on each shard owner at
    drain, so the dispatcher domain joins. *)

val answer : t -> (string * float * float) array -> float array
(** [answer t requests] evaluates a batch of [(name, a, b)] range queries
    and returns their selectivities in request order.  Each distinct name
    is resolved once per batch — a cache hit, or a miss that loads the
    snapshot and caches it — however the names interleave.
    @raise Invalid_argument on an unknown name or an unreadable
    snapshot. *)

val answer_into :
  t ->
  n:int ->
  names:string array ->
  a:float array ->
  b:float array ->
  out:float array ->
  unit
(** [answer_into t ~n ~names ~a ~b ~out] answers queries
    [Q(a.(i), b.(i))] against entry [names.(i)] into [out.(i)] for
    [0 <= i < n] — the structure-of-arrays twin of {!answer}, and the
    serving engine's fast path.  Results are bit-identical to {!answer}
    (both reduce to the same per-cell probe; see
    [Selest.Stored.selectivity_into]).  Each maximal run of equal
    adjacent names is resolved once, so callers should keep same-entry
    queries contiguous (on interleaved names {!answer}'s once-per-batch
    resolution is faster); at steady state (summaries resident, buffers
    caller-owned) the call allocates nothing.
    @raise Invalid_argument on an unknown name, an unreadable snapshot,
    [n < 0], or arrays shorter than [n]. *)

val answer_one : t -> name:string -> a:float -> b:float -> (float, string) result
(** Single-query {!answer} with an [Error] instead of an exception. *)

val answer_rect :
  t ->
  name:string ->
  x_lo:float ->
  x_hi:float ->
  y_lo:float ->
  y_hi:float ->
  (float, string) result
(** Selectivity of a closed rectangle against a rect entry: one cache
    access, then [Selest.Stored.rect_selectivity] — the function
    [Multidim.Hist2d.selectivity] is an alias of, so the served answer is
    bit-identical to the direct library call.  [Error] on an unknown
    name, a non-rect entry, or an unreadable snapshot. *)

val answer_join :
  t -> name:string -> pred:Selest.Stored.join_pred -> (float, string) result
(** Estimated size of [R JOIN_pred S] from a join entry
    ([Selest.Stored.join_estimate], the function [Join.Ineqjoin.estimate]
    is an alias of).  [Error] on an unknown name, a non-join entry, or an
    unreadable snapshot. *)

val cache_stats : t -> Lru.stats
(** Lifetime hit/miss/eviction counts of the summary cache. *)

(** {1 Adaptivity}

    The streaming half of the catalog: once {!enable_adaptive} is called,
    the service accepts {!insert}ed attribute values into a per-entry
    reservoir sample ({!Online.Reservoir}) and {!observe}d true
    selectivities into a per-entry ST-histogram
    ({!Feedback.Adaptive}), and {!adaptive_tick} turns both into
    atomically swapped summary versions — a background resample rebuild
    when the insert budget trips, a synchronous feedback refresh every
    [refresh_after_observes] observations.  Reads stay allocation-free
    and bit-identical between swaps; the full policy is documented in
    [docs/ADAPTIVITY.md].

    Like the rest of the service these functions are single-owner: the
    serving engine confines them to the entry's shard dispatcher.  Only
    a rebuild runs elsewhere: on one rebuild domain per process, spawned
    by the first launch (with its own 32k-word minor heap) and stopped
    and joined at exit, where the rebuilds of every service and shard
    queue and run one at a time in launch order.  A rebuild job touches
    nothing but its private copy of the sample, so a long kernel refit
    never holds the owner's domain: the owner only copies the sample at
    launch and swaps the result in at reap. *)

type adaptive_config = {
  reservoir_capacity : int;
      (** values retained per entry for resample rebuilds (default 1024) *)
  min_rebuild_sample : int;
      (** don't launch a resample rebuild below this reservoir size
          (default 64) *)
  refresh_after_observes : int;
      (** bake the feedback histogram into a served summary every this
          many observations (default 256); each range entry also keeps
          that many observations (24 bytes each) to replay across a
          rebuild swap *)
  learning_rate : float;
      (** ST-histogram error absorption per observation, in (0, 1]
          (default 0.5) *)
  adaptive_seed : int64;
      (** reservoir PRNG seed; each entry derives its own by xoring in a
          stable hash of its name (default 0xada971fe55aa) *)
}

val default_adaptive_config : adaptive_config
(** The defaults above; sizing guidance in [docs/ADAPTIVITY.md]. *)

val enable_adaptive : ?config:adaptive_config -> t -> unit
(** Switch the service into adaptive mode.  Off by default — a
    non-adaptive service serves byte-for-byte what a pre-adaptivity
    server did, and {!insert}/{!observe} return [Error].
    @raise Invalid_argument on a non-positive [config] field, a
    [learning_rate] outside (0, 1], or if already enabled. *)

val adaptive_enabled : t -> bool
(** Whether {!enable_adaptive} has been called. *)

val insert : t -> name:string -> float array -> (int * int, string) result
(** [insert t ~name values] streams freshly inserted records of the
    entry's relation into its reservoir(s) and advances its staleness
    count (the same budget {!record_inserts} spends).  What a value means
    is kind-specific: range entries take attribute values; rect entries
    take flattened [(x, y)] pairs ([x0; y0; x1; y1; ...] — even length
    required), kept paired through reservoir sampling by two same-seed
    lockstep reservoirs; join entries take R-side attribute values (the
    adaptive rebuild re-buckets R from the reservoir and keeps the
    summarized S side).  The staleness count advances by the number of
    records — pairs for rect entries, values otherwise.  Returns
    [(retained, seen)] — current reservoir occupancy and lifetime offered
    count.  The stale flag is persisted when it trips; sub-budget counts
    live in memory only, so a kill loses at most one budget of progress.
    [Error] on an unknown entry, a non-finite value, an odd-length rect
    frame, or when adaptivity is disabled. *)

val observe :
  t -> name:string -> a:float -> b:float -> actual:float -> (float, string) result
(** [observe t ~name ~a ~b ~actual] feeds back the true selectivity of
    range [[a, b]] as measured by the caller's executed query, refining
    the entry's ST-histogram where the workload actually queries.
    Returns the refined in-memory estimate for the same range — it
    converges toward [actual] over repeated observations, while the
    {e served} summary only changes at the next refresh swap.  Range
    entries only — rect and join summaries carry no ST-histogram, so
    their adaptivity is reservoir-rebuild only.  [Error] on an unknown
    or non-range entry, [actual] outside [0, 1], non-finite bounds, or
    when adaptivity is disabled. *)

val adaptive_tick : ?wake:(unit -> unit) -> t -> int
(** One step of the maintenance loop; the serving engine calls this
    between batches.  In order: (1) if the rebuild domain has finished
    this service's rebuild, atomically swap its summary in (cache,
    metadata and snapshot move together).  The swap keeps what the
    rebuild's sample did not see: the entry's insert count becomes the
    inserts since the launch, and the entry turns stale again if those
    cover [rebuild_after_inserts]; the feedback histogram reseeds from
    the new version and the observations since the last refresh (up to
    [refresh_after_observes] of them) are replayed onto it, still
    counting toward the next refresh.  (2) Bake every feedback
    histogram with [refresh_after_observes] pending observations into a
    swapped summary, synchronously; a refresh swap starts the count
    from zero.  (3) If no rebuild is in flight, copy the reservoir
    sample of the first stale entry (sorted order) that holds at least
    [min_rebuild_sample] values and queue its rebuild on the rebuild
    domain.  [wake] goes with the job and is called on the rebuild
    domain once its result is ready, so an idle caller can re-tick
    promptly; the default does nothing — callers may simply tick
    periodically.  Returns the number of summaries swapped by this
    call.  A rebuild whose estimator rejects the sample parks
    the entry ([Error] recorded, visible in {!adaptive_stats}) until
    fresh inserts arrive, rather than hot-looping; so does a rebuild
    whose snapshot cannot be written.  A refresh whose snapshot cannot
    be written is retried after [refresh_after_observes] more
    observations.  Either way the old bits stay served.  Never
    raises. *)

val adaptive_drain : t -> unit
(** Retire the adaptive runtime on the owner's way out: wait until the
    rebuild domain has finished this service's in-flight rebuild (and
    any queued ahead of it), then run a final {!adaptive_tick} so its
    result is swapped in (and persisted) rather than discarded.  A
    no-op when adaptivity is disabled or nothing is pending. *)

type adaptive_stats = {
  tracked_entries : int;  (** entries with live adaptive state *)
  sampled_values : int;  (** lifetime values offered across reservoirs *)
  observations : int;  (** feedback observations absorbed *)
  rebuild_in_flight : bool;
      (** a rebuild was launched and not yet reaped: queued or running on
          the rebuild domain, or finished and waiting for the next
          {!adaptive_tick} *)
  last_rebuild_error : string option;
      (** first parked rebuild failure, if any *)
}

val adaptive_stats : t -> adaptive_stats
(** Snapshot of the adaptive runtime (all zeros when disabled).  Swap
    counts are on the telemetry side: [catalog_adaptive_swaps_total]. *)
