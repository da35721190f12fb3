type config = {
  capacity : int;
  rebuild_after_inserts : int;
  cells : int;
}

let default_config = { capacity = 32; rebuild_after_inserts = 10_000; cells = 256 }

(* Per-entry metadata stays resident even when the summary itself is
   evicted: staleness must be trackable without touching the disk. *)
type meta = {
  kind : Selest.Stored.kind;
  spec : string;
  provenance : string option; (* audit trail of where the spec came from *)
  mutable cells : int;
  domain : float * float; (* x-domain for rect entries *)
  domain_y : (float * float) option; (* rect entries only *)
  mutable inserts : int;
  mutable stale : bool;
  mutable gen : int;
      (* the entry's highest generation on disk; its next persist writes
         [gen + 1], a name no file has *)
  mutable file : string; (* the generation holding the served bits: what a miss loads *)
}

type adaptive_config = {
  reservoir_capacity : int;
  min_rebuild_sample : int;
  refresh_after_observes : int;
  learning_rate : float;
  adaptive_seed : int64;
}

let default_adaptive_config =
  {
    reservoir_capacity = 1024;
    min_rebuild_sample = 64;
    refresh_after_observes = 256;
    learning_rate = 0.5;
    adaptive_seed = 0xada9_71fe_55aaL;
  }

(* Per-entry adaptive state, created lazily on the first insert/observe.
   Confined to the service owner (the shard dispatcher); the rebuild
   domain below runs only a job that closes over a copy of the sample,
   and never touches this record. *)
type astate = {
  reservoir : Online.Reservoir.t;
      (* range: attribute values; rect: x coordinates; join: R-side values *)
  reservoir_y : Online.Reservoir.t option;
      (* rect entries only: y coordinates, created with the same seed as
         [reservoir] and fed in lockstep.  Algorithm R's replacement
         decisions depend only on (seed, seen count), never on the values,
         so the two reservoirs make identical slot choices and slot [i]
         of each always holds the coordinates of the same point. *)
  mutable feedback : Feedback.Adaptive.t option;
      (* range entries only: rect/join summaries have no ST-histogram *)
  mutable observes_since_refresh : int;
  observed : float array;
      (* range entries only: the last [refresh_after_observes]
         observations since the last refresh, a ring of (a, b, actual)
         triples, so a rebuild swap can replay them onto the histogram it
         reseeds; empty for rect/join entries *)
  mutable rebuild_failed : string option;
      (* last background rebuild error; cleared by fresh inserts so the
         tick does not hot-loop on a sample the estimator rejects *)
}

(* A rebuild launched and not yet reaped.  The rebuild domain sets
   [p_result] once; the owner reads it from [adaptive_tick] and installs
   the summary. *)
type pending = {
  p_name : string;
  p_inserts : int; (* the entry's insert count when its sample was copied *)
  p_result : (Selest.Stored.any, string) result option Atomic.t;
}

type adaptive_rt = {
  acfg : adaptive_config;
  states : (string, astate) Hashtbl.t;
  mutable pending : pending option;
}

(* ---------------- the rebuild domain ---------------- *)

(* Every service in the process queues its rebuilds on one long-lived
   domain, spawned by the first launch and stopped and joined at exit.
   A rebuild is a kernel refit of up to [reservoir_capacity] values; on
   the owner's domain, even in a systhread of its own, it would hold
   that domain's runtime lock, and with it every read of the shard, for
   the whole fit.  The domain runs jobs in launch order, one at a time,
   and turns whatever a job raises into an [Error] the owner parks, so
   its loop never dies. *)
type rebuild_job = {
  r_run : unit -> (Selest.Stored.any, string) result;
  r_pending : pending;
  r_wake : unit -> unit;
}

type rebuilder = {
  r_m : Mutex.t;
  r_work : Condition.t; (* a job was queued, or [r_stop] set *)
  r_done : Condition.t; (* some job's [p_result] was set *)
  r_jobs : rebuild_job Queue.t;
  mutable r_stop : bool;
  mutable r_domain : unit Domain.t option;
}

let rebuilder =
  {
    r_m = Mutex.create ();
    r_work = Condition.create ();
    r_done = Condition.create ();
    r_jobs = Queue.create ();
    r_stop = false;
    r_domain = None;
  }

(* The domain's own minor heap, in words.  Every domain's minor heap is
   resident memory once touched, and a kernel rebuild allocates ~160k
   words (2k in the fit, the rest in [Stored.of_estimator]), so the
   256k-word default would cost the server ~2 MiB for a domain that is
   idle between rebuilds.  Smaller is worse: each minor collection stops
   every domain, the dispatchers too, and at 8k words p99 reads on a
   rebuilding shard tripled while RSS did not fall.  Set from inside the
   domain, so it is that domain's alone. *)
let rebuild_minor_heap_words = 32_768

let finish (p : pending) result =
  Atomic.set p.p_result (Some result);
  Mutex.lock rebuilder.r_m;
  Condition.broadcast rebuilder.r_done;
  Mutex.unlock rebuilder.r_m

let rec rebuild_loop () =
  Mutex.lock rebuilder.r_m;
  while Queue.is_empty rebuilder.r_jobs && not rebuilder.r_stop do
    Condition.wait rebuilder.r_work rebuilder.r_m
  done;
  let job = Queue.take_opt rebuilder.r_jobs in
  Mutex.unlock rebuilder.r_m;
  match job with
  | None -> () (* stopped *)
  | Some j ->
    finish j.r_pending (try j.r_run () with e -> Error (Printexc.to_string e));
    (try j.r_wake () with _ -> ());
    rebuild_loop ()

let exiting = "the process is exiting"

(* At exit: jobs not started are answered with an error (nobody is left
   to install them, and a drain must not wait on them), the running one
   finishes, and the domain is joined. *)
let stop_rebuilder () =
  Mutex.lock rebuilder.r_m;
  rebuilder.r_stop <- true;
  let queued = List.of_seq (Queue.to_seq rebuilder.r_jobs) in
  Queue.clear rebuilder.r_jobs;
  let d = rebuilder.r_domain in
  rebuilder.r_domain <- None;
  Condition.broadcast rebuilder.r_work;
  Mutex.unlock rebuilder.r_m;
  List.iter (fun j -> finish j.r_pending (Error ("rebuild not run: " ^ exiting))) queued;
  Option.iter Domain.join d

(* Queue [job], spawning the domain on the first call.  A job that
   cannot run is answered at once with an error, which the owner's next
   tick parks like a rejected sample. *)
let submit_rebuild job =
  Mutex.lock rebuilder.r_m;
  let refused =
    match rebuilder.r_domain with
    | Some _ -> None
    | None when rebuilder.r_stop -> Some exiting
    | None -> (
      let main () =
        Gc.set { (Gc.get ()) with Gc.minor_heap_size = rebuild_minor_heap_words };
        rebuild_loop ()
      in
      match Domain.spawn main with
      | d ->
        rebuilder.r_domain <- Some d;
        at_exit stop_rebuilder;
        None
      | exception e -> Some ("the rebuild domain could not start: " ^ Printexc.to_string e))
  in
  if refused = None then begin
    Queue.add job rebuilder.r_jobs;
    Condition.signal rebuilder.r_work
  end;
  Mutex.unlock rebuilder.r_m;
  Option.iter
    (fun msg ->
      finish job.r_pending (Error ("rebuild not run: " ^ msg));
      job.r_wake ())
    refused

(* Block until the rebuild domain has answered [p]. *)
let await (p : pending) =
  Mutex.lock rebuilder.r_m;
  while Atomic.get p.p_result = None do
    Condition.wait rebuilder.r_done rebuilder.r_m
  done;
  Mutex.unlock rebuilder.r_m

(* The off-owner half of a persist.  The owner hands every generation
   it writes to a janitor systhread, started on demand, that runs
   [Snapshot.commit] on them: fsync, then unlink what they replace.  The
   thread exits as soon as it finds nothing to do, so a domain that
   persisted can always be joined — OCaml 5's [Domain.join] waits for
   every systhread the domain started. *)
type janitor = {
  j_m : Mutex.t;
  mutable j_written : (string * int) list; (* handed over, not yet committed *)
  mutable j_running : bool; (* a janitor thread will look at [j_written] again *)
  mutable j_thread : Thread.t option; (* the last one started; owner-only *)
}

type t = {
  dir : string;
  config : config;
  index : (string, meta) Hashtbl.t;
  cache : Selest.Stored.any Lru.t;
  tops : (string, int) Hashtbl.t;
      (* highest generation on disk of names not in the index: dropped
         entries, and entries none of whose files loaded.  A new build of
         such a name continues above it, so neither a janitor still
         retiring the old entry nor a torn file can take the new file. *)
  janitor : janitor;
  mutable adaptive : adaptive_rt option;
  m_entries : Telemetry.Metrics.gauge;
  m_builds : Telemetry.Metrics.counter;
  m_rebuilds : Telemetry.Metrics.counter;
  m_stale : Telemetry.Metrics.counter;
  m_snapshot_writes : Telemetry.Metrics.counter;
  m_snapshot_load_errors : Telemetry.Metrics.counter;
  m_batch_requests : Telemetry.Metrics.counter;
  m_answer_seconds : Telemetry.Metrics.histogram;
  m_adaptive_inserts : Telemetry.Metrics.counter;
  m_observations : Telemetry.Metrics.counter;
  m_swaps : Telemetry.Metrics.counter;
}

type info = {
  name : string;
  kind : Selest.Stored.kind;
  spec : string;
  provenance : string option;
  cells : int;
  domain : float * float;
  domain_y : (float * float) option;
  inserts : int;
  stale : bool;
  cached : bool;
}

let meta_of ~spec ~provenance ~inserts ~stale ~gen ~file summary =
  {
    kind = Selest.Stored.any_kind summary;
    spec;
    provenance;
    cells = Selest.Stored.any_cells summary;
    domain = Selest.Stored.any_domain summary;
    domain_y =
      (match summary with
      | Selest.Stored.Rect r -> Some (snd (Selest.Stored.rect_domains r))
      | _ -> None);
    inserts;
    stale;
    gen;
    file;
  }

let open_dir ?(config = default_config) ?shard dir =
  if config.capacity < 1 then invalid_arg "Catalog.Service.open_dir: capacity must be >= 1";
  if config.rebuild_after_inserts < 1 then
    invalid_arg "Catalog.Service.open_dir: rebuild_after_inserts must be >= 1";
  if config.cells < 1 then invalid_arg "Catalog.Service.open_dir: cells must be >= 1";
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  if not (Sys.is_directory dir) then
    raise (Sys_error (Printf.sprintf "%s: not a directory" dir));
  let labels =
    ("dir", Filename.basename dir)
    :: (match shard with None -> [] | Some i -> [ ("shard", string_of_int i) ])
  in
  let t =
    {
      dir;
      config;
      index = Hashtbl.create 64;
      cache = Lru.create ~cache_name:(Filename.basename dir) ~capacity:config.capacity ();
      tops = Hashtbl.create 8;
      janitor = { j_m = Mutex.create (); j_written = []; j_running = false; j_thread = None };
      adaptive = None;
      m_entries =
        Telemetry.Metrics.gauge "catalog_entries" ~labels ~help:"Indexed catalog entries";
      m_builds =
        Telemetry.Metrics.counter "catalog_builds_total" ~labels
          ~help:"Summaries built from a sample (including rebuilds)";
      m_rebuilds =
        Telemetry.Metrics.counter "catalog_rebuilds_total" ~labels
          ~help:"Builds that replaced an existing entry";
      m_stale =
        Telemetry.Metrics.counter "catalog_stale_transitions_total" ~labels
          ~help:"Entries that turned stale (insert budget or invalidate)";
      m_snapshot_writes =
        Telemetry.Metrics.counter "catalog_snapshot_writes_total" ~labels
          ~help:"Atomic snapshot files written";
      m_snapshot_load_errors =
        Telemetry.Metrics.counter "catalog_snapshot_load_errors_total" ~labels
          ~help:"Snapshot files skipped as corrupt during recovery";
      m_batch_requests =
        Telemetry.Metrics.counter "catalog_batch_requests_total" ~labels
          ~help:"Range queries answered through Service.answer";
      m_answer_seconds =
        Telemetry.Metrics.histogram "catalog_answer_seconds" ~labels
          ~help:"Latency of Service.answer batches";
      m_adaptive_inserts =
        Telemetry.Metrics.counter "catalog_adaptive_inserts_total" ~labels
          ~help:"Values offered to per-entry reservoirs via Service.insert";
      m_observations =
        Telemetry.Metrics.counter "catalog_observations_total" ~labels
          ~help:"True selectivities absorbed via Service.observe";
      m_swaps =
        Telemetry.Metrics.counter "catalog_adaptive_swaps_total" ~labels
          ~help:"Summaries atomically swapped by the adaptive tick";
    }
  in
  let found, skipped = Snapshot.load_generations ?shard ~dir () in
  List.iter
    (fun (g : Snapshot.generations) ->
      match g.g_served with
      | Some (gen, e) ->
        Hashtbl.replace t.index e.name
          (meta_of ~spec:e.spec ~provenance:e.provenance ~inserts:e.inserts ~stale:e.stale
             ~gen:g.g_top ~file:(Snapshot.path ~gen ~dir e.name) e.summary)
      | None -> Hashtbl.replace t.tops g.g_name g.g_top)
    found;
  Telemetry.Metrics.add t.m_snapshot_load_errors (List.length skipped);
  Telemetry.Metrics.set t.m_entries (float_of_int (Hashtbl.length t.index));
  (t, skipped)

let dir t = t.dir
let config t = t.config
let names t = Hashtbl.fold (fun name _ acc -> name :: acc) t.index [] |> List.sort String.compare
let mem t name = Hashtbl.mem t.index name

let info_of t name (m : meta) =
  {
    name;
    kind = m.kind;
    spec = m.spec;
    provenance = m.provenance;
    cells = m.cells;
    domain = m.domain;
    domain_y = m.domain_y;
    inserts = m.inserts;
    stale = m.stale;
    cached = Lru.mem t.cache name;
  }

let info t name = Option.map (info_of t name) (Hashtbl.find_opt t.index name)

let infos t =
  List.filter_map (fun name -> info t name) (names t)

(* ---------------- persistence ---------------- *)

let rec janitor_loop t =
  let j = t.janitor in
  Mutex.lock j.j_m;
  let written = j.j_written in
  j.j_written <- [];
  if written = [] then j.j_running <- false;
  Mutex.unlock j.j_m;
  if written <> [] then begin
    Snapshot.commit ~dir:t.dir written;
    janitor_loop t
  end

let hand_to_janitor t name gen =
  let j = t.janitor in
  Mutex.lock j.j_m;
  j.j_written <- (name, gen) :: j.j_written;
  let start = not j.j_running in
  j.j_running <- true;
  Mutex.unlock j.j_m;
  if start then
    match Thread.create janitor_loop t with
    | th -> j.j_thread <- Some th
    | exception _ ->
      (* The generation is written; only its commit waits, for the next
         hand-over or [flush]. *)
      Mutex.lock j.j_m;
      j.j_running <- false;
      Mutex.unlock j.j_m

let flush t =
  let j = t.janitor in
  Option.iter Thread.join j.j_thread;
  j.j_thread <- None;
  (* Left over only if a janitor thread could not be started. *)
  Mutex.lock j.j_m;
  let written = j.j_written in
  j.j_written <- [];
  Mutex.unlock j.j_m;
  if written <> [] then Snapshot.commit ~dir:t.dir written

(* The owner's half of a persist: write the entry's next generation
   under a name no file has — no fsync, no rename over a live file — and
   hand it to the janitor.  [m] points at the new file only once it is
   in place, so a failed write raises with the entry's generation and
   served file unchanged. *)
let write_next t name (m : meta) ~inserts ~stale summary =
  let gen = m.gen + 1 in
  Snapshot.save ~gen ~dir:t.dir
    { Snapshot.name; spec = m.spec; inserts; stale; provenance = m.provenance; summary };
  m.gen <- gen;
  m.file <- Snapshot.path ~gen ~dir:t.dir name;
  hand_to_janitor t name gen;
  Telemetry.Metrics.incr t.m_snapshot_writes

(* New change counts for the entry.  When [always], or when they turn
   it stale, the snapshot is rewritten first — the summary read without
   touching recency or hit/miss accounting, reloaded from the served
   generation if it was evicted — so a failed write raises with the
   entry unchanged. *)
let set_counts ?(always = true) t name (m : meta) ~inserts ~stale =
  let turned = stale && not m.stale in
  if always || turned then begin
    let summary =
      match Lru.peek t.cache name with
      | Some s -> s
      | None -> (
        match Snapshot.load ~path:m.file with
        | Ok e -> e.Snapshot.summary
        | Error msg ->
          raise
            (Sys_error (Printf.sprintf "catalog: snapshot of %S unreadable: %s" name msg)))
    in
    write_next t name m ~inserts ~stale summary
  end;
  m.inserts <- inserts;
  m.stale <- stale;
  if turned then Telemetry.Metrics.incr t.m_stale

(* The stale flag after [inserts] changes: the insert budget is spent,
   or the entry was stale already. *)
let stale_at t (m : meta) inserts = m.stale || inserts >= t.config.rebuild_after_inserts

(* Shared tail of every build path: snapshot, index and cache move
   together — the snapshot first, so a failed write leaves the entry as
   it was — and a successful build is immediately servable and survives
   a restart. *)
let install_built t ~name ~spec ~provenance summary =
  let existed, top =
    match Hashtbl.find_opt t.index name with
    | Some old -> (true, old.gen)
    | None -> (false, Option.value (Hashtbl.find_opt t.tops name) ~default:(-1))
  in
  let m = meta_of ~spec ~provenance ~inserts:0 ~stale:false ~gen:top ~file:"" summary in
  write_next t name m ~inserts:0 ~stale:false summary;
  Hashtbl.remove t.tops name;
  Hashtbl.replace t.index name m;
  Lru.add t.cache name summary;
  Telemetry.Metrics.incr t.m_builds;
  if existed then Telemetry.Metrics.incr t.m_rebuilds;
  Telemetry.Metrics.set t.m_entries (float_of_int (Hashtbl.length t.index));
  Ok (info_of t name m)

let check_name who name =
  if name = "" then Error (who ^ ": entry name must not be empty")
  else if String.contains name '\n' then
    Error (who ^ ": entry name must not contain newlines")
  else Ok ()

let build ?provenance t ~name ~spec ~domain ~sample =
  match check_name "Catalog.Service.build" name with
  | Error msg -> Error msg
  | Ok () -> (
    match Selest.Estimator.spec_of_string spec with
    | Error e -> Error e
    | Ok parsed -> (
      match
        Telemetry.Span.with_span "catalog.build" (fun () ->
            let est = Selest.Estimator.build parsed ~domain sample in
            Selest.Stored.of_estimator ~cells:t.config.cells ~domain est)
      with
      | exception Invalid_argument msg -> Error msg
      | summary -> install_built t ~name ~spec ~provenance (Selest.Stored.Range summary)))

let build_rect t ~name ~spec ~domain_x ~domain_y ~points =
  match check_name "Catalog.Service.build_rect" name with
  | Error msg -> Error msg
  | Ok () -> (
    match Selest.Stored.rect_spec_of_string spec with
    | Error e -> Error e
    | Ok (bins_x, bins_y) -> (
      match
        Telemetry.Span.with_span "catalog.build" (fun () ->
            Selest.Stored.rect_of_points ~domain_x ~domain_y ~bins_x ~bins_y points)
      with
      | exception Invalid_argument msg -> Error msg
      | rect -> install_built t ~name ~spec ~provenance:None (Selest.Stored.Rect rect)))

let build_join t ~name ~spec ~domain ~n_r ~n_s ~sample_r ~sample_s =
  match check_name "Catalog.Service.build_join" name with
  | Error msg -> Error msg
  | Ok () -> (
    match Selest.Stored.join_spec_of_string spec with
    | Error e -> Error e
    | Ok buckets -> (
      match
        Telemetry.Span.with_span "catalog.build" (fun () ->
            Selest.Stored.join_of_samples ~domain ~buckets ~n_r ~n_s sample_r sample_s)
      with
      | exception Invalid_argument msg -> Error msg
      | join -> install_built t ~name ~spec ~provenance:None (Selest.Stored.Join join)))

let unknown name = Error (Printf.sprintf "unknown catalog entry %S" name)

let kind_mismatch name ~want ~got =
  Error
    (Printf.sprintf "catalog entry %S is a %s entry, not %s" name
       (Selest.Stored.kind_name got) (Selest.Stored.kind_name want))

let rebuild t ~name ~sample =
  match Hashtbl.find_opt t.index name with
  | None -> unknown name
  | Some m when m.kind <> Selest.Stored.Range_kind ->
    kind_mismatch name ~want:Selest.Stored.Range_kind ~got:m.kind
  | Some m ->
    (* The spec's origin is unchanged by refitting it on a fresh sample. *)
    build ?provenance:m.provenance t ~name ~spec:m.spec ~domain:m.domain ~sample

let record_inserts t ~name count =
  match Hashtbl.find_opt t.index name with
  | None -> unknown name
  | Some m ->
    let inserts = m.inserts + abs count in
    set_counts t name m ~inserts ~stale:(stale_at t m inserts);
    Ok ()

let sync_maintenance t ~name maintenance =
  match Hashtbl.find_opt t.index name with
  | None -> unknown name
  | Some m ->
    let inserts = Selest.Maintenance.changed_count maintenance in
    set_counts t name m ~inserts ~stale:(stale_at t m inserts);
    Ok ()

let invalidate t name =
  match Hashtbl.find_opt t.index name with
  | None -> unknown name
  | Some m ->
    (* Persist first: the summary may only be resident in the cache copy
       we are about to drop. *)
    set_counts t name m ~inserts:m.inserts ~stale:true;
    Lru.remove t.cache name;
    Ok ()

let drop t name =
  match Hashtbl.find_opt t.index name with
  | None -> unknown name
  | Some m ->
    Hashtbl.remove t.index name;
    Hashtbl.replace t.tops name m.gen;
    Lru.remove t.cache name;
    Snapshot.delete ~dir:t.dir name;
    Telemetry.Metrics.set t.m_entries (float_of_int (Hashtbl.length t.index));
    Ok ()

(* One cache access per call: a hit, or a miss that loads the snapshot
   into the cache.  Raises on unknown names and unreadable snapshots.
   The hit path goes through [Lru.find_exn] and allocates nothing. *)
let resolve_exn t name =
  match Hashtbl.find t.index name with
  | exception Not_found -> invalid_arg (Printf.sprintf "Catalog.Service: unknown entry %S" name)
  | m -> (
    match Lru.find_exn t.cache name with
    | summary -> summary
    | exception Not_found -> (
      match Snapshot.load ~path:m.file with
      | Ok e ->
        Lru.add t.cache name e.Snapshot.summary;
        e.Snapshot.summary
      | Error msg ->
        invalid_arg (Printf.sprintf "Catalog.Service: snapshot of %S unreadable: %s" name msg)))

(* The range-query paths keep their historical exception contract; a
   range request against a rect/join entry is a caller error of the same
   class as an unknown name. *)
let resolve_range_exn t name =
  match resolve_exn t name with
  | Selest.Stored.Range s -> s
  | other ->
    invalid_arg
      (Printf.sprintf "Catalog.Service: entry %S is a %s entry, not range" name
         (Selest.Stored.kind_name (Selest.Stored.any_kind other)))

let answer t requests =
  Telemetry.Metrics.add t.m_batch_requests (Array.length requests);
  Telemetry.Span.with_span ~hist:t.m_answer_seconds "catalog.answer" (fun () ->
      (* Group per entry: each distinct name costs one cache access per
         batch, however many requests mention it, even when the names
         interleave (where [answer_into] resolves once per run). *)
      let resolved = Hashtbl.create 8 in
      Array.iter
        (fun (name, _, _) ->
          if not (Hashtbl.mem resolved name) then
            Hashtbl.replace resolved name (resolve_range_exn t name))
        requests;
      Array.map
        (fun (name, a, b) -> Selest.Stored.selectivity (Hashtbl.find resolved name) ~a ~b)
        requests)

(* The served fast path.  Structure-of-arrays in, answers out, zero
   allocation at steady state: each maximal run of equal names costs one
   [resolve_exn] (a no-alloc cache hit once the summary is resident) and
   one [Stored.selectivity_into] over its slice, which is bit-identical
   to the scalar probes [answer] makes.  Timing uses the manual
   [Span.start_ns]/[record] pair instead of [with_span] so no closure is
   built per batch. *)
let answer_into t ~n ~names ~a ~b ~out =
  if n < 0 then invalid_arg "Catalog.Service.answer_into: negative batch size";
  if Array.length names < n || Array.length a < n || Array.length b < n
     || Array.length out < n
  then invalid_arg "Catalog.Service.answer_into: arrays shorter than n";
  Telemetry.Metrics.add t.m_batch_requests n;
  let t0 = Telemetry.Span.start_ns () in
  let i = ref 0 in
  while !i < n do
    let name = Array.unsafe_get names !i in
    let summary = resolve_range_exn t name in
    let j = ref (!i + 1) in
    while !j < n && String.equal (Array.unsafe_get names !j) name do
      incr j
    done;
    Selest.Stored.selectivity_into summary ~pos:!i ~len:(!j - !i) ~a ~b ~out;
    i := !j
  done;
  (* Guarded so the disabled path builds no [Some hist] cell per batch. *)
  if t0 <> 0 then Telemetry.Span.record ~hist:t.m_answer_seconds ~start_ns:t0 "catalog.answer"

let answer_one t ~name ~a ~b =
  if not (mem t name) then unknown name
  else
    match resolve_range_exn t name with
    | exception Invalid_argument msg -> Error msg
    | summary -> Ok (Selest.Stored.selectivity summary ~a ~b)

(* The rect/join answer paths: one cache access, then pure arithmetic in
   [Selest.Stored] — the same functions Multidim.Hist2d and Join.Ineqjoin
   delegate to, which is what makes a served answer bit-identical to the
   direct library call. *)
let answer_rect t ~name ~x_lo ~x_hi ~y_lo ~y_hi =
  if not (mem t name) then unknown name
  else
    match resolve_exn t name with
    | exception Invalid_argument msg -> Error msg
    | Selest.Stored.Rect r ->
      Telemetry.Metrics.incr t.m_batch_requests;
      Ok (Selest.Stored.rect_selectivity r ~x_lo ~x_hi ~y_lo ~y_hi)
    | other ->
      kind_mismatch name ~want:Selest.Stored.Rect_kind
        ~got:(Selest.Stored.any_kind other)

let answer_join t ~name ~pred =
  if not (mem t name) then unknown name
  else
    match resolve_exn t name with
    | exception Invalid_argument msg -> Error msg
    | Selest.Stored.Join j ->
      Telemetry.Metrics.incr t.m_batch_requests;
      Ok (Selest.Stored.join_estimate j ~pred)
    | other ->
      kind_mismatch name ~want:Selest.Stored.Join_kind
        ~got:(Selest.Stored.any_kind other)

let cache_stats t = Lru.stats t.cache
let snapshot_file t name = Option.map (fun m -> m.file) (Hashtbl.find_opt t.index name)

(* FNV-1a over the entry name.  Stable across processes and OCaml
   versions; used both to place entries in shard directories and to
   derive per-entry reservoir seeds.  (Hashtbl.hash is explicitly not
   that: its value is version-dependent.)  Inlined, the closure-free loop
   keeps the accumulator unboxed: the engine routes by it per request. *)
let[@inline] fnv1a name =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length name - 1 do
    h := Int64.(mul (logxor !h (of_int (Char.code (String.unsafe_get name i)))) 0x100000001b3L)
  done;
  !h

(* ---------------- adaptivity ---------------- *)

let enable_adaptive ?(config = default_adaptive_config) t =
  if config.reservoir_capacity < 1 then
    invalid_arg "Catalog.Service.enable_adaptive: reservoir_capacity must be >= 1";
  if config.min_rebuild_sample < 1 then
    invalid_arg "Catalog.Service.enable_adaptive: min_rebuild_sample must be >= 1";
  if config.refresh_after_observes < 1 then
    invalid_arg "Catalog.Service.enable_adaptive: refresh_after_observes must be >= 1";
  if not (config.learning_rate > 0.0 && config.learning_rate <= 1.0) then
    invalid_arg "Catalog.Service.enable_adaptive: learning_rate must be in (0, 1]";
  match t.adaptive with
  | Some _ -> invalid_arg "Catalog.Service.enable_adaptive: already enabled"
  | None ->
    t.adaptive <- Some { acfg = config; states = Hashtbl.create 16; pending = None }

let adaptive_enabled t = Option.is_some t.adaptive

let adaptive_disabled =
  Error "adaptive serving is disabled (start the server with --adaptive)"

(* Seed the per-entry feedback histogram from the entry's current summary,
   at the summary's own grid resolution so a later refresh loses nothing.
   Only range summaries carry one; rect/join adaptivity is
   reservoir-rebuild only. *)
let seed_feedback rt (m : meta) summary =
  match (summary : Selest.Stored.any) with
  | Selest.Stored.Range s ->
    Some
      (Feedback.Adaptive.create ~buckets:m.cells ~learning_rate:rt.acfg.learning_rate
         ~domain:m.domain
         ~base:(fun ~a ~b -> Selest.Stored.selectivity s ~a ~b)
         ())
  | Selest.Stored.Rect _ | Selest.Stored.Join _ -> None

let adaptive_state t rt name (m : meta) =
  match Hashtbl.find_opt rt.states name with
  | Some st -> Ok st
  | None -> (
    match resolve_exn t name with
    | exception Invalid_argument msg -> Error msg
    | summary ->
      let seed = Int64.logxor rt.acfg.adaptive_seed (fnv1a name) in
      let feedback = seed_feedback rt m summary in
      let st =
        {
          reservoir =
            Online.Reservoir.create ~seed ~capacity:rt.acfg.reservoir_capacity ();
          reservoir_y =
            (if m.kind = Selest.Stored.Rect_kind then
               Some (Online.Reservoir.create ~seed ~capacity:rt.acfg.reservoir_capacity ())
             else None);
          feedback;
          observes_since_refresh = 0;
          observed =
            (if feedback = None then [||]
             else Array.make (3 * rt.acfg.refresh_after_observes) 0.0);
          rebuild_failed = None;
        }
      in
      Hashtbl.replace rt.states name st;
      Ok st)

let insert t ~name values =
  match t.adaptive with
  | None -> adaptive_disabled
  | Some rt -> (
    match Hashtbl.find_opt t.index name with
    | None -> unknown name
    | Some m ->
      if Array.exists (fun v -> not (Float.is_finite v)) values then
        Error "insert: values must be finite"
      else if m.kind = Selest.Stored.Rect_kind && Array.length values mod 2 <> 0 then
        Error "insert: rect entries take flattened (x, y) pairs; even length required"
      else (
        match adaptive_state t rt name m with
        | Error _ as e -> e
        | Ok st ->
          let inserted =
            match st.reservoir_y with
            | None ->
              (* Range values, or join R-side values: one reservoir. *)
              Online.Reservoir.add_array st.reservoir values;
              Array.length values
            | Some ry ->
              (* Rect: de-interleave the flattened pairs into the two
                 lockstep reservoirs (same seed, same seen count — same
                 slot decisions, so pairing survives sampling). *)
              let pairs = Array.length values / 2 in
              for p = 0 to pairs - 1 do
                Online.Reservoir.add st.reservoir values.(2 * p);
                Online.Reservoir.add ry values.((2 * p) + 1)
              done;
              pairs
          in
          st.rebuild_failed <- None;
          let inserts = m.inserts + inserted in
          (* Persist only on the stale transition: one snapshot write per
             budget cycle instead of one per insert frame.  Staleness
             still survives restarts once tripped; sub-budget counts are
             the acceptable loss on kill. *)
          set_counts ~always:false t name m ~inserts ~stale:(stale_at t m inserts);
          Telemetry.Metrics.add t.m_adaptive_inserts inserted;
          Ok (Online.Reservoir.size st.reservoir, Online.Reservoir.seen st.reservoir)))

let observe t ~name ~a ~b ~actual =
  match t.adaptive with
  | None -> adaptive_disabled
  | Some rt -> (
    match Hashtbl.find_opt t.index name with
    | None -> unknown name
    | Some m ->
      if not (Float.is_finite actual && actual >= 0.0 && actual <= 1.0) then
        Error "observe: actual selectivity must be in [0, 1]"
      else if not (Float.is_finite a && Float.is_finite b) then
        Error "observe: range bounds must be finite"
      else (
        match adaptive_state t rt name m with
        | Error _ as e -> e
        | Ok st -> (
          match st.feedback with
          | None ->
            Error
              (Printf.sprintf
                 "observe: entry %S is a %s entry; only range entries take feedback"
                 name (Selest.Stored.kind_name m.kind))
          | Some fb ->
            Feedback.Adaptive.observe fb ~a ~b ~actual;
            let k = 3 * (st.observes_since_refresh mod rt.acfg.refresh_after_observes) in
            st.observed.(k) <- a;
            st.observed.(k + 1) <- b;
            st.observed.(k + 2) <- actual;
            st.observes_since_refresh <- st.observes_since_refresh + 1;
            Telemetry.Metrics.incr t.m_observations;
            Ok (Feedback.Adaptive.selectivity fb ~a ~b))))

(* Install [summary] as the entry's served version: snapshot, cache and
   metadata move together, and the feedback histogram is reseeded from
   the new summary so refinement continues against what is actually
   served.  The swap happens entirely in the owner between [answer_into]
   calls — a read sees the old bits or the new bits, never a torn mix —
   and the snapshot goes first, so a failed write raises with the old
   bits still served.

   A refresh swap ([rebuilt = None]) bakes every pending observation
   into [summary], so the reseeded histogram starts from zero.  A
   rebuild swap ([rebuilt = Some launched], the insert count its sample
   was copied at) keeps what its sample did not see: the inserts since
   [launched] stay counted, and spend the budget again if they cover it,
   and the observations since the last refresh are replayed, oldest
   first, onto the histogram reseeded from the rebuilt summary. *)
let install_summary t rt name (m : meta) (st : astate) summary ~rebuilt =
  let inserts, stale =
    match rebuilt with
    | None -> (m.inserts, m.stale)
    | Some launched ->
      let since = Int.max 0 (m.inserts - launched) in
      (since, since >= t.config.rebuild_after_inserts)
  in
  write_next t name m ~inserts ~stale summary;
  Lru.add t.cache name summary;
  m.cells <- Selest.Stored.any_cells summary;
  m.inserts <- inserts;
  m.stale <- stale;
  st.feedback <- seed_feedback rt m summary;
  (match (rebuilt, st.feedback) with
  | Some _, Some fb ->
    let cap = rt.acfg.refresh_after_observes and seen = st.observes_since_refresh in
    let kept = Int.min seen cap in
    for i = seen - kept to seen - 1 do
      let k = 3 * (i mod cap) in
      Feedback.Adaptive.observe fb ~a:st.observed.(k) ~b:st.observed.(k + 1)
        ~actual:st.observed.(k + 2)
    done
  | _ -> st.observes_since_refresh <- 0);
  Telemetry.Metrics.incr t.m_swaps

(* The job closes over its own copy of the reservoir sample and the
   entry's immutable build inputs — it never touches service state.  The
   (cheap) sample copy happens here in the owner, and so does the
   reading of a join entry's current summary.  What a rebuild means
   is kind-specific: range refits the spec on the sample; rect re-grids
   the paired reservoirs; join re-buckets the R side from its reservoir
   while keeping the summarized S side (inserts stream into R). *)
let launch_rebuild t rt name (m : meta) (st : astate) wake =
  let job : unit -> (Selest.Stored.any, string) result =
    match m.kind with
    | Selest.Stored.Range_kind ->
      let sample = Online.Reservoir.sample st.reservoir in
      let spec = m.spec and domain = m.domain and cells = m.cells in
      fun () -> (
        match Selest.Estimator.spec_of_string spec with
        | Error e -> Error e
        | Ok parsed -> (
          match
            Selest.Stored.of_estimator ~cells ~domain
              (Selest.Estimator.build parsed ~domain sample)
          with
          | summary -> Ok (Selest.Stored.Range summary)
          | exception Invalid_argument msg -> Error msg))
    | Selest.Stored.Rect_kind ->
      let xs = Online.Reservoir.sample st.reservoir in
      let ys =
        match st.reservoir_y with
        | Some ry -> Online.Reservoir.sample ry
        | None -> [||]
      in
      let spec = m.spec and domain_x = m.domain in
      let domain_y = Option.value ~default:m.domain m.domain_y in
      fun () -> (
        match Selest.Stored.rect_spec_of_string spec with
        | Error e -> Error e
        | Ok (bins_x, bins_y) ->
          if Array.length xs <> Array.length ys then
            Error "rect rebuild: reservoirs out of lockstep"
          else (
            match
              Selest.Stored.rect_of_points ~domain_x ~domain_y ~bins_x ~bins_y
                (Array.map2 (fun x y -> (x, y)) xs ys)
            with
            | rect -> Ok (Selest.Stored.Rect rect)
            | exception Invalid_argument msg -> Error msg))
    | Selest.Stored.Join_kind ->
      let sample_r = Online.Reservoir.sample st.reservoir in
      let spec = m.spec and domain = m.domain in
      let current =
        match Lru.peek t.cache name with
        | Some (Selest.Stored.Join j) -> Some j
        | _ -> (
          match Snapshot.load ~path:m.file with
          | Ok { Snapshot.summary = Selest.Stored.Join j; _ } -> Some j
          | _ -> None)
      in
      fun () -> (
        match (Selest.Stored.join_spec_of_string spec, current) with
        | Error e, _ -> Error e
        | Ok _, None -> Error "join rebuild: current summary unreadable"
        | Ok buckets, Some j ->
          let n_r, n_s = Selest.Stored.join_sizes j in
          let _, sample_s = Selest.Stored.join_samples j in
          (match
             Selest.Stored.join_of_samples ~domain ~buckets ~n_r ~n_s sample_r
               sample_s
           with
          | join -> Ok (Selest.Stored.Join join)
          | exception Invalid_argument msg -> Error msg))
  in
  let p = { p_name = name; p_inserts = m.inserts; p_result = Atomic.make None } in
  rt.pending <- Some p;
  submit_rebuild { r_run = job; r_pending = p; r_wake = wake }

let adaptive_tick ?(wake = fun () -> ()) t =
  match t.adaptive with
  | None -> 0
  | Some rt ->
    let swaps = ref 0 in
    (* 1. Reap a finished background rebuild and swap it in. *)
    (match rt.pending with
    | Some p ->
      (match Atomic.get p.p_result with
      | None -> () (* queued or running *)
      | Some r ->
        rt.pending <- None;
        (match (r, Hashtbl.find_opt t.index p.p_name) with
        | _, None -> () (* entry dropped while rebuilding; discard *)
        | Ok summary, Some m ->
          (match Hashtbl.find_opt rt.states p.p_name with
          | None -> ()
          | Some st -> (
            match install_summary t rt p.p_name m st summary ~rebuilt:(Some p.p_inserts) with
            | () ->
              Telemetry.Metrics.incr t.m_builds;
              Telemetry.Metrics.incr t.m_rebuilds;
              incr swaps
            | exception Sys_error msg ->
              (* Parked like a rejected sample: no rebuild loop against a
                 directory that refuses writes. *)
              st.rebuild_failed <- Some msg))
        | Error msg, Some _ ->
          Option.iter
            (fun st -> st.rebuild_failed <- Some msg)
            (Hashtbl.find_opt rt.states p.p_name)))
    | None -> ());
    (* 2. Apply every due feedback refresh synchronously (probing the
       ST-histogram over the grid is microseconds; no worker needed). *)
    Hashtbl.iter
      (fun name st ->
        match st.feedback with
        | Some fb when st.observes_since_refresh >= rt.acfg.refresh_after_observes -> (
          match Hashtbl.find_opt t.index name with
          | None -> ()
          | Some m ->
            let summary =
              Selest.Stored.of_fn ~cells:m.cells ~domain:m.domain (fun ~a ~b ->
                  Feedback.Adaptive.selectivity fb ~a ~b)
            in
            match
              install_summary t rt name m st (Selest.Stored.Range summary) ~rebuilt:None
            with
            | () -> incr swaps
            | exception Sys_error _ ->
              (* Retried after the next [refresh_after_observes]. *)
              st.observes_since_refresh <- 0)
        | _ -> ())
      rt.states;
    (* 3. Launch at most one background resample rebuild for the first
       stale entry with enough reservoir (sorted order for determinism). *)
    if rt.pending = None then begin
      let due name =
        match (Hashtbl.find_opt t.index name, Hashtbl.find_opt rt.states name) with
        | Some m, Some st
          when m.stale
               && st.rebuild_failed = None
               && Online.Reservoir.size st.reservoir >= rt.acfg.min_rebuild_sample ->
          Some (m, st)
        | _ -> None
      in
      let rec first = function
        | [] -> ()
        | name :: rest -> (
          match due name with
          | Some (m, st) -> launch_rebuild t rt name m st wake
          | None -> first rest)
      in
      first (names t)
    end;
    !swaps

(* Waiting first guarantees [p_result] is set, so the final tick always
   reaps — no rebuild is ever abandoned mid-flight by an orderly
   shutdown. *)
let adaptive_drain t =
  match t.adaptive with
  | None -> ()
  | Some rt ->
    Option.iter await rt.pending;
    ignore (adaptive_tick t)

type adaptive_stats = {
  tracked_entries : int;
  sampled_values : int;
  observations : int;
  rebuild_in_flight : bool;
  last_rebuild_error : string option;
}

let adaptive_stats t =
  match t.adaptive with
  | None ->
    {
      tracked_entries = 0;
      sampled_values = 0;
      observations = 0;
      rebuild_in_flight = false;
      last_rebuild_error = None;
    }
  | Some rt ->
    let sampled = ref 0 and obs = ref 0 and err = ref None in
    Hashtbl.iter
      (fun _ st ->
        sampled := !sampled + Online.Reservoir.seen st.reservoir;
        (match st.feedback with
        | Some fb -> obs := !obs + Feedback.Adaptive.feedback_count fb
        | None -> ());
        if !err = None then err := st.rebuild_failed)
      rt.states;
    {
      tracked_entries = Hashtbl.length rt.states;
      sampled_values = !sampled;
      observations = !obs;
      rebuild_in_flight = rt.pending <> None;
      last_rebuild_error = !err;
    }

(* ---------------- sharding ---------------- *)

(* The FNV-1a hash above, folded modulo the shard count.  The hash must
   be stable — it names the directory an entry persists in, so a
   different hash after an upgrade would strand every snapshot in the
   wrong shard.  The unsigned remainder folds the top 63 bits, then the
   low one: [Int64.unsigned_rem] is an out-of-line call that boxes. *)
let shard_of_name ~shards name =
  if shards < 1 then invalid_arg "Catalog.Service.shard_of_name: shards must be >= 1";
  if shards = 1 then 0
  else
    let h = fnv1a name and d = Int64.of_int shards in
    Int64.(to_int (rem (add (shift_left (rem (shift_right_logical h 1) d) 1) (logand h 1L)) d))

let shard_dir_name i = Printf.sprintf "shard-%d" i

(* Move every snapshot file found under [dir] — in the flat v1 layout or
   in any shard-*/ subdirectory — to where the target layout wants it:
   the flat directory itself for [shards = 1], shard-<hash>/ otherwise.
   Re-running is a no-op, so opening with a different shard count
   migrates, and opening with the same count touches nothing.  Orphaned
   .tmp files in a directory being vacated are swept here (per-shard
   [load_dir] never scans it); failures go on the skip list instead of
   aborting the open. *)
let migrate_layout ~shards dir =
  let skipped = ref [] in
  let skip file msg = skipped := (file, msg) :: !skipped in
  let snapshot_files d =
    if Sys.file_exists d && Sys.is_directory d then
      Sys.readdir d |> Array.to_list |> List.sort String.compare
      |> List.map (fun f -> (d, f))
    else []
  in
  let shard_subdirs =
    Sys.readdir dir |> Array.to_list |> List.sort String.compare
    |> List.filter (fun f ->
           String.length f > 6
           && String.sub f 0 6 = "shard-"
           && Sys.is_directory (Filename.concat dir f))
    |> List.map (Filename.concat dir)
  in
  let sources = List.concat_map snapshot_files (dir :: shard_subdirs) in
  let in_target_layout d =
    if shards = 1 then d = dir
    else
      d <> dir
      && (let base = Filename.basename d in
          match int_of_string_opt (String.sub base 6 (String.length base - 6)) with
          | Some i -> base = shard_dir_name i && i >= 0 && i < shards
          | None -> false)
  in
  List.iter
    (fun (src_dir, file) ->
      let src = Filename.concat src_dir file in
      if Filename.check_suffix file Snapshot.tmp_extension then begin
        (* Only vacated directories are swept here; the target layout's
           own directories get the reported sweep in [Snapshot.load_dir]. *)
        if not (in_target_layout src_dir) then
          match Sys.remove src with
          | () -> skip file "orphaned temp file from an interrupted write; deleted"
          | exception Sys_error msg -> skip file ("orphaned temp file; could not delete: " ^ msg)
      end
      else if Filename.check_suffix file Snapshot.extension then
        match Snapshot.decode_file_name file with
        | None -> skip file "not a percent-encoded snapshot file name; left in place"
        | Some name ->
          let target_dir =
            if shards = 1 then dir
            else Filename.concat dir (shard_dir_name (shard_of_name ~shards name))
          in
          if target_dir <> src_dir then begin
            if not (Sys.file_exists target_dir) then Sys.mkdir target_dir 0o755;
            match Sys.rename src (Filename.concat target_dir file) with
            | () -> ()
            | exception Sys_error msg -> skip file ("could not migrate to shard layout: " ^ msg)
          end)
    sources;
  (* Directories the migration emptied are noise for the next scan. *)
  List.iter
    (fun d ->
      if Sys.file_exists d && Sys.readdir d = [||] then
        try Sys.rmdir d with Sys_error _ -> ())
    shard_subdirs;
  List.rev !skipped

let open_sharded ?(config = default_config) ~shards dir =
  if shards < 1 then invalid_arg "Catalog.Service.open_sharded: shards must be >= 1";
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  if not (Sys.is_directory dir) then
    raise (Sys_error (Printf.sprintf "%s: not a directory" dir));
  let migration_skips = migrate_layout ~shards dir in
  if shards = 1 then begin
    (* Degenerate case is byte-for-byte the v1 flat layout: same
       directory, same metric labels, same [open_dir] result. *)
    let t, skipped = open_dir ~config dir in
    ([| t |], migration_skips @ skipped)
  end
  else begin
    let opened =
      Array.init shards (fun i ->
          open_dir ~config ~shard:i (Filename.concat dir (shard_dir_name i)))
    in
    let skipped =
      Array.to_list opened |> List.concat_map (fun (_, skips) -> skips)
    in
    (Array.map fst opened, migration_skips @ skipped)
  end
