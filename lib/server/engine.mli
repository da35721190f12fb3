(** The concurrent estimate server: socket front end over a
    hash-partitioned array of [Catalog.Service] shards.

    One thread calls {!serve} and runs the accept loop; each connection
    gets a reader thread; and each shard runs one dispatcher {e domain}
    that owns that shard's catalog service (single-owner by contract)
    and folds the requests that pile up while a batch is evaluating
    into the next [Catalog.Service.answer_into] call over the shard's
    reused structure-of-arrays staging buffers.  Requests are routed by
    entry name with [Catalog.Service.shard_of_name] — the same stable
    hash that lays out the snapshot directories in
    [Catalog.Service.open_sharded] — and a [batch_estimate] frame whose
    queries span shards is split into per-shard sub-jobs, evaluated
    concurrently, and reassembled in request order.  Because each
    query's slot is evaluated independently, a served estimate is
    bit-identical to a direct [answer] call on the same snapshot
    directory, whatever the batching, routing, or shard count; with one
    shard the engine degenerates to exactly the single-dispatcher
    server.  Connections reuse their per-shard job records and
    [Wire.writer], so the steady-state single-shard reply path
    allocates no fresh buffers (see [docs/PERFORMANCE.md] for the
    allocation budget; [docs/SHARDING.md] for the sharded operation
    handbook).

    Overload and shutdown are typed protocol replies, not dropped
    connections: admission control answers [Overloaded] the moment
    [max_inflight] is reached (one slot per request, however many
    shards it fans out to), queue residence past [deadline_s] answers
    [Timeout], and a drain ({!initiate_drain} or SIGTERM via
    {!install_sigterm}) refuses new work with [Draining] while every
    in-flight request completes and its reply is written before
    {!serve} returns.  A shard whose dispatcher has died answers the
    typed [Internal] error while the other shards keep serving.
    Semantics and tuning guidance live in [docs/SERVING.md]. *)

type config = {
  max_inflight : int;
      (** admission-control limit: requests being evaluated or queued;
          at the limit new requests get an immediate [Overloaded] reply.
          [0] refuses everything — useful for testing backpressure. *)
  max_batch : int;
      (** target ceiling on range queries merged into one dispatcher
          batch (applied per shard); a single client batch larger than
          this still dispatches (whole) rather than being split *)
  deadline_s : float;
      (** a request older than this when its dispatcher reaches it gets
          a [Timeout] reply instead of an answer; [0.] disables
          deadlines *)
  accept_backlog : int;  (** listen(2) backlog of not-yet-accepted connections *)
  tick_s : float;
      (** accept-loop poll interval; bounds how stale the drain flag can
          go unnoticed *)
  dispatch_delay_s : float;
      (** artificial pause before each dispatcher batch — [0.] in
          production; tests raise it to make timeout and drain windows
          deterministic *)
}

val default_config : config
(** [{ max_inflight = 64; max_batch = 64; deadline_s = 5.0;
      accept_backlog = 64; tick_s = 0.02; dispatch_delay_s = 0.0 }].
    Evaluation parallelism comes from shards: each shard's dispatcher
    evaluates its merged batches sequentially. *)

type shard_stats = {
  shard_batches : int;  (** [Catalog.Service.answer_into] calls this shard issued *)
  shard_batched_queries : int;  (** range queries folded into those calls *)
  shard_answered : int;
      (** estimates this shard answered: range queries, rectangles and joins *)
  shard_swaps : int;
      (** adaptive summary versions this shard's dispatcher swapped in
          (rebuilds and feedback refreshes; [0] unless the services were
          {!Catalog.Service.enable_adaptive}d) *)
}

type stats = {
  connections : int;  (** connections accepted *)
  requests : int;  (** frames decoded into well-formed requests *)
  answered : int;
      (** estimates answered, all shards: range queries, rectangles and
          joins *)
  overloaded : int;  (** requests refused by admission control *)
  timeouts : int;  (** requests expired past their deadline *)
  refused_draining : int;  (** requests refused because a drain had begun *)
  protocol_errors : int;  (** malformed frames or payloads received *)
  batches : int;  (** dispatcher batches across all shards *)
  batched_queries : int;  (** range queries folded into those batches *)
  swaps : int;  (** adaptive summary swaps across all shards *)
  shards : int;  (** number of shards the engine was created with *)
  per_shard : shard_stats array;
      (** per-shard batching counters, indexed by shard id — the skew
          diagnostic: a hot entry shows up as one shard carrying most of
          [shard_answered] *)
}

type t

val create : ?config:config -> services:Catalog.Service.t array -> Wire.address -> t
(** [create ~services address] binds and listens on [address] (an
    existing Unix-socket path is removed first; TCP sockets get
    [SO_REUSEADDR]).  [services] is the shard array, normally from
    [Catalog.Service.open_sharded] with the same shard count — element
    [i] must own the entries [Catalog.Service.shard_of_name] maps to
    [i], or those entries answer [Unknown_entry].  The server takes
    ownership of every service: no other thread may touch them until
    {!serve} returns.  A one-element array is the classic single-
    dispatcher server.  @raise Invalid_argument on an empty [services]
    or a non-positive [config] field (except [max_inflight] and
    [dispatch_delay_s], where [0] is meaningful).
    @raise Unix.Unix_error if the address cannot be bound. *)

val serve : t -> unit
(** Run the server on the calling thread (the shard dispatchers spawn
    as domains).  Blocks until a drain is initiated, then: stops
    accepting (the listen socket closes, so new connects are refused at
    the socket layer), answers every in-flight request and writes its
    reply, retires the dispatcher domains, closes the remaining
    connections, and returns.  Call at most once per {!t}. *)

val initiate_drain : t -> unit
(** Begin graceful shutdown.  Only sets an atomic flag — safe from any
    thread and from inside a signal handler. *)

val install_sigterm : t -> unit
(** Route SIGTERM to {!initiate_drain}, replacing any previous handler. *)

val draining : t -> bool
(** Whether a drain has been initiated. *)

val address : t -> Wire.address
(** The address {!create} was given. *)

val bound_port : t -> int option
(** The actual TCP port after binding — useful when {!create} was given
    port [0] to let the kernel choose.  [None] for Unix-domain sockets. *)

val shard_count : t -> int
(** Number of shards (the length of the [services] array). *)

val stats : t -> stats
(** Lifetime counters, readable from any thread at any time (each field
    is an independent atomic; the snapshot is not cross-field
    consistent).  The same counts flow into the [Telemetry] registry as
    [server_*] metrics when telemetry is enabled — labeled per shard
    when [shards > 1]. *)

val kill_shard_dispatcher : t -> int -> unit
(** Fault injection for tests: retire shard [i]'s dispatcher as if it
    had died.  Work already queued on the shard drains first; from then
    on requests routed to it (and [ls], which fans out everywhere) get
    the typed [Internal] refusal, other shards keep serving, and a
    subsequent drain still completes — shard failure degrades, it never
    hangs.  Blocks until the dispatcher domain has exited.
    @raise Invalid_argument on an out-of-range shard id. *)
