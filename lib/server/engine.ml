(* The concurrent estimate server, sharded across OCaml 5 domains.

   Thread architecture: the thread calling [serve] runs the accept loop
   (a [select] tick so the drain flag is noticed promptly); each accepted
   connection gets a reader thread; and each shard runs one dispatcher
   *domain* that owns that shard's [Catalog.Service] — the service is
   single-owner by contract (its LRU cache mutates on reads), so every
   catalog operation funnels through its shard's dispatcher.  Domains
   rather than threads because OCaml systhreads of one domain share a
   runtime lock: with [shards = N], N merged batches evaluate in true
   parallel on N cores.

   Requests are routed by entry name: [Catalog.Service.shard_of_name]
   (the same stable hash that lays out the snapshot directories) sends
   each query to the shard that owns its entry.  A [batch_estimate]
   frame whose queries span shards is split by the connection thread
   into per-shard sub-jobs (each preserving its queries' relative
   order), evaluated concurrently, and reassembled into one reply in
   the original request order — so served bits are identical to the
   single-shard path, which in turn is bit-identical to direct
   [Catalog.Service.answer] calls.  With [shards = 1] the router
   degenerates to exactly the pre-sharding engine: one dispatcher, one
   queue, whole frames, zero-allocation steady state.

   Per-shard batching works exactly as the single dispatcher did:
   connection threads park service-bound sub-jobs on the shard's queue
   and block until its dispatcher fulfills them; whatever accumulated
   while the previous batch ran is merged (into the shard's reused
   structure-of-arrays staging buffers) and evaluated in one
   [Service.answer_into] pass.  Each connection reuses one job record
   per shard and one [Wire.writer]; a steady-state single-shard request
   costs no fresh buffers on the reply path, while a cross-shard batch
   pays small per-request split/reassembly arrays (quantified in
   docs/PERFORMANCE.md).

   Backpressure is admission control at enqueue time: once
   [max_inflight] requests are in flight the connection thread answers
   [Overloaded] immediately instead of queueing — one admission slot
   per request, however many shards it fans out to.  Requests that sat
   in a queue past [deadline_s] are answered [Timeout] without
   evaluation.  A drain (SIGTERM or [initiate_drain]) stops the accept
   loop, answers new requests [Draining], lets every in-flight request
   finish and its reply be written, then retires the dispatchers and
   closes all sockets.  A dispatcher that dies (or is killed by the
   [kill_shard_dispatcher] fault hook) marks its shard down: queued
   jobs are failed with the typed [Internal] error and later requests
   routed there are refused the same way, while the other shards keep
   serving — a shard failure degrades, it does not hang. *)

module Service = Catalog.Service

type config = {
  max_inflight : int;
  max_batch : int;
  deadline_s : float;
  accept_backlog : int;
  tick_s : float;
  dispatch_delay_s : float;
}

let default_config =
  {
    max_inflight = 64;
    max_batch = 64;
    deadline_s = 5.0;
    accept_backlog = 64;
    tick_s = 0.02;
    dispatch_delay_s = 0.0;
  }

type shard_stats = {
  shard_batches : int;
  shard_batched_queries : int;
  shard_answered : int;
  shard_swaps : int;
}

type stats = {
  connections : int;
  requests : int;
  answered : int;
  overloaded : int;
  timeouts : int;
  refused_draining : int;
  protocol_errors : int;
  batches : int;
  batched_queries : int;
  swaps : int;
  shards : int;
  per_shard : shard_stats array;
}

(* A service-bound request parked by its connection thread.  One job
   record lives per connection *per shard*, not per request: the
   connection thread blocks awaiting every sub-job of a request before
   reading its next frame, so the records (and their mutex/condition)
   are free for reuse the moment the replies land — [req],
   [enqueued_at] and [reply] are reset in place.  [req] is what the
   decoder returned; a single estimate's fields live in the job record
   itself ([q1_entry], [q1_spec], [q1]), so parking one carries no fresh
   request value and allocates nothing. *)
type job = {
  mutable req : Wire.incoming;
  mutable enqueued_at : float;
  job_m : Mutex.t;
  job_c : Condition.t;
  mutable reply : Wire.response option;
  mutable q1_entry : string;
  mutable q1_spec : string;
  q1 : Wire.qnums; (* all-float record: setting the bounds never boxes *)
}

(* Structure-of-arrays staging for merged batches, owned by the shard's
   dispatcher domain and reused (grown geometrically, never shrunk)
   across batches: at steady state a dispatch allocates no fresh
   arrays before handing the batch to [Service.answer_into]. *)
type merge_buffers = {
  mutable mb_names : string array;
  mutable mb_a : float array;
  mutable mb_b : float array;
  mutable mb_out : float array;
}

type shard = {
  sh_id : int;
  sh_service : Service.t;
  sh_queue : job Queue.t;
  sh_m : Mutex.t;
  sh_c : Condition.t;
  sh_mb : merge_buffers;
  (* [sh_stop] asks the dispatcher to exit once its queue drains;
     [sh_down] means it is gone — set by the dispatcher domain itself on
     the way out, checked at enqueue so no job can park on a queue
     nobody will ever pop. *)
  sh_stop : bool Atomic.t;
  sh_down : bool Atomic.t;
  mutable sh_poked : bool;
      (* under [sh_m]: a rebuild result is ready and no [next_jobs] has
         returned since.  The rebuild domain runs in parallel, so it can
         finish before the dispatcher reaches its wait; the flag keeps
         that wake from being lost. *)
  mutable sh_domain : unit Domain.t option;
  sh_batches : int Atomic.t;
  sh_batched_queries : int Atomic.t;
  sh_answered : int Atomic.t;
  sh_swaps : int Atomic.t;
  sh_m_batches : Telemetry.Metrics.counter;
  sh_m_batched_queries : Telemetry.Metrics.counter;
}

type t = {
  shards : shard array;
  config : config;
  address : Wire.address;
  listen_fd : Unix.file_descr;
  draining : bool Atomic.t;
  inflight : int Atomic.t;
  conns : (int, Unix.file_descr * Thread.t) Hashtbl.t;
  conns_m : Mutex.t;
  conn_seq : int Atomic.t;
  s_connections : int Atomic.t;
  s_requests : int Atomic.t;
  s_overloaded : int Atomic.t;
  s_timeouts : int Atomic.t;
  s_refused_draining : int Atomic.t;
  s_protocol_errors : int Atomic.t;
  m_connections : Telemetry.Metrics.counter;
  m_requests : Telemetry.Metrics.counter;
  m_overloaded : Telemetry.Metrics.counter;
  m_timeouts : Telemetry.Metrics.counter;
  m_request_seconds : Telemetry.Metrics.histogram;
}

let shard_count t = Array.length t.shards

let create ?(config = default_config) ~services address =
  Wire.ignore_sigpipe ();
  if Array.length services < 1 then
    invalid_arg "Server.Engine.create: services must not be empty";
  if config.max_inflight < 0 then
    invalid_arg "Server.Engine.create: max_inflight must be >= 0";
  if config.max_batch < 1 then invalid_arg "Server.Engine.create: max_batch must be >= 1";
  if config.accept_backlog < 1 then
    invalid_arg "Server.Engine.create: accept_backlog must be >= 1";
  if config.tick_s <= 0.0 then invalid_arg "Server.Engine.create: tick_s must be > 0";
  let listen_fd =
    match address with
    | Wire.Unix_socket path ->
      (* A path left behind by a dead server would make bind fail; a live
         server on the same path is indistinguishable, so serving twice
         from one path is the caller's responsibility. *)
      if Sys.file_exists path then Sys.remove path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      fd
    | Wire.Tcp _ as a ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Wire.sockaddr_of_address a);
      fd
  in
  Unix.listen listen_fd config.accept_backlog;
  let labels = [ ("addr", Wire.address_to_string address) ] in
  let nshards = Array.length services in
  let shards =
    Array.mapi
      (fun i service ->
        (* The single-shard configuration keeps today's label set so its
           telemetry stream is unchanged; sharded servers label per
           shard, which is what makes per-shard batching observable. *)
        let sh_labels =
          if nshards = 1 then labels else labels @ [ ("shard", string_of_int i) ]
        in
        {
          sh_id = i;
          sh_service = service;
          sh_queue = Queue.create ();
          sh_m = Mutex.create ();
          sh_c = Condition.create ();
          sh_mb = { mb_names = [||]; mb_a = [||]; mb_b = [||]; mb_out = [||] };
          sh_stop = Atomic.make false;
          sh_down = Atomic.make false;
          sh_poked = false;
          sh_domain = None;
          sh_batches = Atomic.make 0;
          sh_batched_queries = Atomic.make 0;
          sh_answered = Atomic.make 0;
          sh_swaps = Atomic.make 0;
          sh_m_batches =
            Telemetry.Metrics.counter "server_batches_total" ~labels:sh_labels
              ~help:"Service.answer calls issued by the dispatchers";
          sh_m_batched_queries =
            Telemetry.Metrics.counter "server_batched_queries_total" ~labels:sh_labels
              ~help:"Range queries folded into dispatcher batches";
        })
      services
  in
  {
    shards;
    config;
    address;
    listen_fd;
    draining = Atomic.make false;
    inflight = Atomic.make 0;
    conns = Hashtbl.create 64;
    conns_m = Mutex.create ();
    conn_seq = Atomic.make 0;
    s_connections = Atomic.make 0;
    s_requests = Atomic.make 0;
    s_overloaded = Atomic.make 0;
    s_timeouts = Atomic.make 0;
    s_refused_draining = Atomic.make 0;
    s_protocol_errors = Atomic.make 0;
    m_connections =
      Telemetry.Metrics.counter "server_connections_total" ~labels
        ~help:"Connections accepted by the estimate server";
    m_requests =
      Telemetry.Metrics.counter "server_requests_total" ~labels
        ~help:"Frames decoded into requests";
    m_overloaded =
      Telemetry.Metrics.counter "server_overloaded_total" ~labels
        ~help:"Requests refused by admission control";
    m_timeouts =
      Telemetry.Metrics.counter "server_timeouts_total" ~labels
        ~help:"Requests expired past their deadline before evaluation";
    m_request_seconds =
      Telemetry.Metrics.histogram "server_request_seconds" ~labels
        ~help:"Latency from frame decode to reply written";
  }

let address t = t.address

let bound_port t =
  match Unix.getsockname t.listen_fd with
  | Unix.ADDR_INET (_, port) -> Some port
  | Unix.ADDR_UNIX _ -> None

let stats t =
  let per_shard =
    Array.map
      (fun sh ->
        {
          shard_batches = Atomic.get sh.sh_batches;
          shard_batched_queries = Atomic.get sh.sh_batched_queries;
          shard_answered = Atomic.get sh.sh_answered;
          shard_swaps = Atomic.get sh.sh_swaps;
        })
      t.shards
  in
  {
    connections = Atomic.get t.s_connections;
    requests = Atomic.get t.s_requests;
    answered = Array.fold_left (fun n s -> n + s.shard_answered) 0 per_shard;
    overloaded = Atomic.get t.s_overloaded;
    timeouts = Atomic.get t.s_timeouts;
    refused_draining = Atomic.get t.s_refused_draining;
    protocol_errors = Atomic.get t.s_protocol_errors;
    batches = Array.fold_left (fun n s -> n + s.shard_batches) 0 per_shard;
    batched_queries = Array.fold_left (fun n s -> n + s.shard_batched_queries) 0 per_shard;
    swaps = Array.fold_left (fun n s -> n + s.shard_swaps) 0 per_shard;
    shards = Array.length t.shards;
    per_shard;
  }

let draining t = Atomic.get t.draining

(* Only an atomic store, so it is safe inside a signal handler; the
   accept loop and connection threads poll the flag. *)
let initiate_drain t = Atomic.set t.draining true

let install_sigterm t =
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> initiate_drain t))

(* ---------------- dispatchers (one domain per shard) ---------------- *)

let complete job resp =
  Mutex.lock job.job_m;
  job.reply <- Some resp;
  Condition.broadcast job.job_c;
  Mutex.unlock job.job_m

let internal_error message = Wire.Error_reply { code = Wire.Internal; message }

let unknown_entry name =
  Wire.Error_reply
    { code = Wire.Unknown_entry; message = Printf.sprintf "unknown catalog entry %S" name }

(* Pop the shard's next batch: blocks until a job arrives, the stop flag
   is raised, or the shard is poked (an adaptive rebuild finishing, now
   or since the last call), then takes queued jobs up to [max_batch] merged
   queries (the first job is always taken whole, so an oversized client
   batch still dispatches).  A single [Condition.wait] rather than a
   wait loop: returning [] on a wake with an empty queue is exactly what
   lets the dispatcher run its adaptive maintenance promptly instead of
   sleeping on the swap until the next request. *)
let next_jobs t sh =
  Mutex.lock sh.sh_m;
  if Queue.is_empty sh.sh_queue && (not (Atomic.get sh.sh_stop)) && not sh.sh_poked then
    Condition.wait sh.sh_c sh.sh_m;
  sh.sh_poked <- false;
  let jobs = ref [] in
  let merged = ref 0 in
  let full = ref false in
  while (not !full) && not (Queue.is_empty sh.sh_queue) do
    let j = Queue.peek sh.sh_queue in
    let cost =
      match j.req with
      | Wire.Decoded (Wire.Batch_estimate triples) -> max 1 (Array.length triples)
      | Wire.Fast_estimate | Wire.Decoded _ -> 1
    in
    if !jobs <> [] && !merged + cost > t.config.max_batch then full := true
    else begin
      ignore (Queue.pop sh.sh_queue);
      jobs := j :: !jobs;
      merged := !merged + cost
    end
  done;
  Mutex.unlock sh.sh_m;
  List.rev !jobs

let ls_reply sh =
  Wire.Ls_reply
    (List.map
       (fun (i : Service.info) ->
         {
           Wire.name = i.Service.name;
           spec = i.Service.spec;
           cells = i.Service.cells;
           stale = i.Service.stale;
           domain = i.Service.domain;
           kind = i.Service.kind;
           domain_y = i.Service.domain_y;
         })
       (Service.infos sh.sh_service))

(* A service result as a reply.  An [Error] answers [Unknown_entry] when
   no such entry is indexed and [Bad_request] (the caller's mistake, e.g.
   a wrong-kind entry) otherwise — except that a non-adaptive server
   refuses [insert] and [observe] as [Bad_request] whatever the name, so
   those ([~adaptive:true]) check adaptivity before the entry. *)
let reply_of sh ~adaptive entry ok = function
  | Ok v -> ok v
  | Error message ->
    let unknown =
      ((not adaptive) || Service.adaptive_enabled sh.sh_service)
      && not (Service.mem sh.sh_service entry)
    in
    Wire.Error_reply
      { code = (if unknown then Wire.Unknown_entry else Wire.Bad_request); message }

(* Every request but a range query, answered inline by the shard's
   service.  Rect and join delegate to the same [Selest.Stored]
   arithmetic a direct [Multidim.Hist2d] or [Join.Ineqjoin] call uses,
   so their served bits are identical by construction. *)
let answer_request sh req =
  let svc = sh.sh_service in
  match req with
  | Wire.Ls -> ls_reply sh
  | Wire.Invalidate name ->
    reply_of sh ~adaptive:false name (fun () -> Wire.Invalidated) (Service.invalidate svc name)
  | Wire.Insert { entry; values } ->
    reply_of sh ~adaptive:true entry
      (fun (sampled, seen) -> Wire.Inserted { sampled; seen })
      (Service.insert svc ~name:entry values)
  | Wire.Observe { entry; a; b; actual } ->
    reply_of sh ~adaptive:true entry
      (fun v -> Wire.Observed v)
      (Service.observe svc ~name:entry ~a ~b ~actual)
  | Wire.Estimate_rect { entry; x_lo; x_hi; y_lo; y_hi } ->
    reply_of sh ~adaptive:false entry
      (fun v -> Wire.Estimate_reply v)
      (Service.answer_rect svc ~name:entry ~x_lo ~x_hi ~y_lo ~y_hi)
  | Wire.Estimate_join { entry; pred } ->
    reply_of sh ~adaptive:false entry
      (fun v -> Wire.Estimate_reply v)
      (Service.answer_join svc ~name:entry ~pred)
  | Wire.Ping -> Wire.Pong
  | Wire.Estimate _ | Wire.Batch_estimate _ ->
    (* Range queries are merged by [run_queries]; none is routed here. *)
    internal_error "range query outside a dispatcher batch"

let ensure_merge_capacity mb total =
  if Array.length mb.mb_names < total then begin
    let cap = ref (Int.max 16 (Array.length mb.mb_names)) in
    while !cap < total do
      cap := 2 * !cap
    done;
    mb.mb_names <- Array.make !cap "";
    mb.mb_a <- Array.make !cap 0.0;
    mb.mb_b <- Array.make !cap 0.0;
    mb.mb_out <- Array.make !cap 0.0
  end

(* Answer every query job of the shard's batch with one
   [Service.answer_into] call over the reused staging arrays.  Each
   job's slice of the merged batch is evaluated independently of what
   else the batch contains, so served answers stay bit-identical to a
   direct call whatever the interleaving of clients; queries of one job
   stay contiguous, so a same-entry client batch is one summary
   resolution.  [complete] is the batch's recording completion function
   (see [process_batch]). *)
let run_queries sh ~complete query_jobs =
  let total = List.fold_left (fun n (_, len) -> n + len) 0 query_jobs in
  if total > 0 then begin
    Atomic.incr sh.sh_batches;
    ignore (Atomic.fetch_and_add sh.sh_batched_queries total);
    Telemetry.Metrics.incr sh.sh_m_batches;
    Telemetry.Metrics.add sh.sh_m_batched_queries total;
    let mb = sh.sh_mb in
    ensure_merge_capacity mb total;
    let off = ref 0 in
    List.iter
      (fun (job, len) ->
        (match job.req with
        | Wire.Decoded (Wire.Batch_estimate triples) ->
          for i = 0 to len - 1 do
            let name, qa, qb = Array.unsafe_get triples i in
            Array.unsafe_set mb.mb_names (!off + i) name;
            Array.unsafe_set mb.mb_a (!off + i) qa;
            Array.unsafe_set mb.mb_b (!off + i) qb
          done
        | Wire.Fast_estimate | Wire.Decoded _ ->
          Array.unsafe_set mb.mb_names !off job.q1_entry;
          Array.unsafe_set mb.mb_a !off job.q1.Wire.sa;
          Array.unsafe_set mb.mb_b !off job.q1.Wire.sb);
        off := !off + len)
      query_jobs;
    match
      Service.answer_into sh.sh_service ~n:total ~names:mb.mb_names ~a:mb.mb_a
        ~b:mb.mb_b ~out:mb.mb_out
    with
    | () ->
      let off = ref 0 in
      List.iter
        (fun (job, len) ->
          let reply =
            match job.req with
            | Wire.Decoded (Wire.Batch_estimate _) ->
              Wire.Batch_reply (Array.sub mb.mb_out !off len)
            | Wire.Fast_estimate | Wire.Decoded _ -> Wire.Estimate_reply mb.mb_out.(!off)
          in
          off := !off + len;
          ignore (Atomic.fetch_and_add sh.sh_answered len);
          complete job reply)
        query_jobs
    | exception e ->
      (* Unreadable snapshot mid-flight: the whole merged call is lost,
         so every member gets the typed internal error rather than a
         hung connection. *)
      let reply = internal_error (Printexc.to_string e) in
      List.iter (fun (job, _) -> complete job reply) query_jobs
  end
  else
    (* Zero-length query jobs are answered before they enqueue, but a
       batch of them reaching here must still complete (the [total > 0]
       work above never touches them) or their connections would park in
       [await_reply] forever. *)
    List.iter (fun (job, _) -> complete job (Wire.Batch_reply [||])) query_jobs

let process_batch_exn t sh ~complete jobs =
  if t.config.dispatch_delay_s > 0.0 then Unix.sleepf t.config.dispatch_delay_s;
  let now = Unix.gettimeofday () in
  let live =
    List.filter
      (fun job ->
        if t.config.deadline_s > 0.0 && now -. job.enqueued_at > t.config.deadline_s then begin
          Atomic.incr t.s_timeouts;
          Telemetry.Metrics.incr t.m_timeouts;
          complete job
            (Wire.Error_reply
               {
                 code = Wire.Timeout;
                 message =
                   Printf.sprintf "request queued %.3fs, past the %.3fs deadline"
                     (now -. job.enqueued_at) t.config.deadline_s;
               });
          false
        end
        else true)
      jobs
  in
  (* Range queries are validated, then merged into one
     [Service.answer_into] call; every other request is answered inline. *)
  let query_jobs =
    List.filter_map
      (fun job ->
        match job.req with
        | Wire.Decoded (Wire.Batch_estimate triples) -> (
          match
            Array.find_opt
              (fun (name, _, _) -> not (Service.mem sh.sh_service name))
              triples
          with
          | Some (name, _, _) ->
            complete job (unknown_entry name);
            None
          | None -> Some (job, Array.length triples))
        | Wire.Fast_estimate | Wire.Decoded (Wire.Estimate _) ->
          if not (Service.mem sh.sh_service job.q1_entry) then begin
            complete job (unknown_entry job.q1_entry);
            None
          end
          else if
            job.q1_spec <> ""
            &&
            match Service.info sh.sh_service job.q1_entry with
            | Some i -> i.Service.spec <> job.q1_spec
            | None -> false
          then begin
            complete job
              (Wire.Error_reply
                 {
                   code = Wire.Spec_mismatch;
                   message = Printf.sprintf "entry was not built with spec %S" job.q1_spec;
                 });
            None
          end
          else Some (job, 1)
        | Wire.Decoded req ->
          (* Caught per job: a persist failure (unreadable snapshot dir,
             full disk) answers this request Internal and leaves the rest
             of the batch to run. *)
          let reply =
            match answer_request sh req with
            | reply -> reply
            | exception e -> internal_error (Printexc.to_string e)
          in
          (* Rect and join answers count as answered estimates. *)
          (match reply with Wire.Estimate_reply _ -> Atomic.incr sh.sh_answered | _ -> ());
          complete job reply;
          None)
      live
  in
  run_queries sh ~complete query_jobs

(* Every completion of the batch goes through a recording wrapper so the
   error backstop knows which jobs were already answered without reading
   [job.reply] — by the time [process_batch_exn] raises, a completed job
   may have been reset and re-enqueued by its connection thread, and an
   unlocked [reply = None] check would answer the *next* request with
   this batch's error while the queued copy double-completes it later. *)
let process_batch t sh jobs =
  let completed = ref [] in
  let complete_job job resp =
    completed := job :: !completed;
    complete job resp
  in
  try process_batch_exn t sh ~complete:complete_job jobs
  with e ->
    let reply = internal_error (Printexc.to_string e) in
    List.iter (fun job -> if not (List.memq job !completed) then complete job reply) jobs

let shard_down_reply sh = internal_error (Printf.sprintf "shard %d dispatcher is down" sh.sh_id)

(* The body of a shard's dispatcher domain.  On the way out — a normal
   stop, or an escaped exception (the per-batch backstop makes that
   nearly impossible) — the shard is marked down and anything still
   queued is failed: enqueue checks [sh_down] under [sh_m] before
   pushing, so every job either reaches this sweep or is refused at
   enqueue, and no connection can park forever on a dead shard. *)
let dispatcher_domain t sh () =
  (try
     (* Adaptive maintenance interleaves with batches: a tick after every
        dispatch, plus one on each wake with an empty queue — the rebuild
        domain pokes the shard when its result is ready, so the swap
        lands promptly even on an idle shard.  [wake] runs on the rebuild
        domain and only touches the shard's mutex/condition. *)
     let wake () =
       Mutex.lock sh.sh_m;
       sh.sh_poked <- true;
       Condition.broadcast sh.sh_c;
       Mutex.unlock sh.sh_m
     in
     let maintain () =
       let swaps = Service.adaptive_tick ~wake sh.sh_service in
       if swaps > 0 then ignore (Atomic.fetch_and_add sh.sh_swaps swaps)
     in
     let rec loop () =
       match next_jobs t sh with
       | [] ->
         if Atomic.get sh.sh_stop then
           (* Orderly retirement: finish (don't abandon) any in-flight
              rebuild so its swap is persisted before the shard goes
              down. *)
           Service.adaptive_drain sh.sh_service
         else begin
           (* Woken with nothing queued: a rebuild result is (probably)
              ready. *)
           maintain ();
           loop ()
         end
       | jobs ->
         process_batch t sh jobs;
         maintain ();
         loop ()
     in
     loop ()
   with _ -> ());
  Mutex.lock sh.sh_m;
  Atomic.set sh.sh_down true;
  let stranded = ref [] in
  while not (Queue.is_empty sh.sh_queue) do
    stranded := Queue.pop sh.sh_queue :: !stranded
  done;
  Mutex.unlock sh.sh_m;
  List.iter (fun job -> complete job (shard_down_reply sh)) (List.rev !stranded);
  (* Last, once no client waits on this shard: the snapshot janitor
     commits what the shard wrote and exits, so [Domain.join] — which
     waits for every systhread this domain started — returns. *)
  Service.flush sh.sh_service

(* Fault-injection hook (tests; see the kill-one-shard drain test):
   stop shard [i]'s dispatcher as if it had died.  Queued jobs drain
   first ([next_jobs] keeps handing out work while the queue is
   non-empty), then the shard goes down: stranded stragglers and all
   later requests routed to it get the typed [Internal] refusal while
   every other shard keeps serving. *)
let kill_shard_dispatcher t i =
  if i < 0 || i >= Array.length t.shards then
    invalid_arg "Server.Engine.kill_shard_dispatcher: no such shard";
  let sh = t.shards.(i) in
  Mutex.lock sh.sh_m;
  Atomic.set sh.sh_stop true;
  Condition.broadcast sh.sh_c;
  Mutex.unlock sh.sh_m;
  match sh.sh_domain with
  | Some d ->
    Domain.join d;
    sh.sh_domain <- None
  | None ->
    (* [serve] not running: nothing to join, but mark the shard down so
       routing refuses it. *)
    Atomic.set sh.sh_down true

(* ---------------- routing ---------------- *)

(* Per-connection routing state: one reusable job record per shard, so
   a request that fans out across shards needs no fresh synchronization
   objects — only its split arrays. *)
type conn_state = { jobs : job array }

let fresh_job () =
  {
    req = Wire.Decoded Wire.Ping;
    enqueued_at = 0.0;
    job_m = Mutex.create ();
    job_c = Condition.create ();
    reply = None;
    q1_entry = "";
    q1_spec = "";
    q1 = { Wire.sa = 0.0; sb = 0.0 };
  }

let send w fd response = Wire.write_response w fd response

let await_reply job =
  Mutex.lock job.job_m;
  while job.reply = None do
    Condition.wait job.job_c job.job_m
  done;
  let r = Option.get job.reply in
  Mutex.unlock job.job_m;
  r

(* Reset the connection's shard-[s] job in place (the dispatcher
   finished with it before the previous [await_reply] returned) and park
   it on the shard's queue — unless the shard is down, in which case the
   job completes immediately with the typed refusal. *)
let park t cs s incoming =
  let sh = t.shards.(s) in
  let job = cs.jobs.(s) in
  job.req <- incoming;
  job.enqueued_at <- Unix.gettimeofday ();
  job.reply <- None;
  Mutex.lock sh.sh_m;
  if Atomic.get sh.sh_down then begin
    Mutex.unlock sh.sh_m;
    complete job (shard_down_reply sh)
  end
  else begin
    Queue.push job sh.sh_queue;
    Condition.broadcast sh.sh_c;
    Mutex.unlock sh.sh_m
  end

let shard_of t name = Service.shard_of_name ~shards:(Array.length t.shards) name

(* Park a single-entry request on the shard that owns its entry.  A
   single estimate's fields move into the job's [q1_*] slots field by
   field (string refs and float-record stores — no request value, no
   closure), so parking one allocates nothing; an estimate that arrives
   as a decoded value takes the same slots.  Pings never leave the
   connection thread, so they have no entry. *)
let enqueue t cs (sc : Wire.scratch) incoming =
  let entry =
    match incoming with
    | Wire.Fast_estimate -> sc.Wire.s_entry
    | Wire.Decoded
        ( Wire.Estimate { entry; _ }
        | Wire.Insert { entry; _ }
        | Wire.Observe { entry; _ }
        | Wire.Estimate_rect { entry; _ }
        | Wire.Estimate_join { entry; _ }
        | Wire.Invalidate entry ) ->
      entry
    | Wire.Decoded (Wire.Ping | Wire.Ls | Wire.Batch_estimate _) -> ""
  in
  let s = shard_of t entry in
  let job = cs.jobs.(s) in
  (match incoming with
  | Wire.Fast_estimate ->
    job.q1_entry <- sc.Wire.s_entry;
    job.q1_spec <- sc.Wire.s_spec;
    job.q1.Wire.sa <- sc.Wire.s_q.Wire.sa;
    job.q1.Wire.sb <- sc.Wire.s_q.Wire.sb
  | Wire.Decoded (Wire.Estimate { entry; a; b; spec }) ->
    job.q1_entry <- entry;
    job.q1_spec <- spec;
    job.q1.Wire.sa <- a;
    job.q1.Wire.sb <- b
  | Wire.Decoded _ -> ());
  park t cs s incoming;
  await_reply job

(* The first error reply among the shards' replies, if any. *)
let first_error replies =
  List.find_map (fun r -> match r with Wire.Error_reply _ -> Some r | _ -> None) replies

(* Split a multi-entry batch across the shards that own its entries,
   await every sub-reply, and reassemble in request order.  Each
   sub-job's queries keep their relative order, and query [i]'s answer
   is taken from its shard's reply at that shard's next unconsumed
   position — scatter by construction, so the merged reply is
   bit-identical to what a single dispatcher would have produced.  If
   any shard answered an error, the lowest-numbered shard's error
   stands for the whole frame (deterministic, though the reported entry
   may differ from the single-shard path, which scans in request
   order). *)
let route_batch t cs incoming triples =
  let nshards = Array.length t.shards in
  let n = Array.length triples in
  let shard_of_query = Array.map (fun (name, _, _) -> shard_of t name) triples in
  let counts = Array.make nshards 0 in
  Array.iter (fun s -> counts.(s) <- counts.(s) + 1) shard_of_query;
  let involved = ref [] in
  for s = nshards - 1 downto 0 do
    if counts.(s) > 0 then involved := s :: !involved
  done;
  match !involved with
  | [ s ] ->
    (* Single-shard frame (the common case, and every frame when
       [shards = 1]): no splitting, no scatter — the job carries the
       decoder's request as-is. *)
    park t cs s incoming;
    await_reply cs.jobs.(s)
  | involved -> (
    let subs = Array.make nshards [||] in
    List.iter (fun s -> subs.(s) <- Array.make counts.(s) ("", 0.0, 0.0)) involved;
    let cursors = Array.make nshards 0 in
    for i = 0 to n - 1 do
      let s = shard_of_query.(i) in
      subs.(s).(cursors.(s)) <- triples.(i);
      cursors.(s) <- cursors.(s) + 1
    done;
    (* Park every sub-job before awaiting any: the shards evaluate
       their slices concurrently. *)
    List.iter (fun s -> park t cs s (Wire.Decoded (Wire.Batch_estimate subs.(s)))) involved;
    let replies = List.map (fun s -> (s, await_reply cs.jobs.(s))) involved in
    match first_error (List.map snd replies) with
    | Some e -> e
    | None ->
      let out = Array.make n 0.0 in
      List.iter
        (fun (s, r) ->
          match r with
          | Wire.Batch_reply xs ->
            (* Scatter: walk the request in order, consuming this
               shard's answers at the positions it owns. *)
            let k = ref 0 in
            for i = 0 to n - 1 do
              if shard_of_query.(i) = s then begin
                out.(i) <- xs.(!k);
                incr k
              end
            done
          | _ -> ())
        replies;
      Wire.Batch_reply out)

(* [ls] must describe the whole catalog, so it fans out to every shard
   and merges the per-shard listings (each sorted; entry names are
   disjoint across shards, so a plain sort of the concatenation is the
   global sorted listing). *)
let route_ls t cs incoming =
  let nshards = Array.length t.shards in
  for s = 0 to nshards - 1 do
    park t cs s incoming
  done;
  let replies = List.init nshards (fun s -> await_reply cs.jobs.(s)) in
  match first_error replies with
  | Some e -> e
  | None ->
    Wire.Ls_reply
      (List.concat_map (fun r -> match r with Wire.Ls_reply es -> es | _ -> []) replies
      |> List.sort (fun (a : Wire.entry_info) b -> String.compare a.name b.name))

let route t cs sc incoming =
  match incoming with
  | Wire.Decoded Wire.Ls -> route_ls t cs incoming
  | Wire.Decoded (Wire.Batch_estimate triples) -> route_batch t cs incoming triples
  | _ -> enqueue t cs sc incoming

(* ---------------- connection threads ---------------- *)

(* The admission-and-drain gate every decoded frame passes.  Pings are
   answered even while draining.  An empty batch is answered inline:
   enqueued, its zero-length job would contribute nothing to a
   dispatcher's merged call.  Admission is the increment itself —
   check-then-increment would let two threads race past the limit
   together — and takes one slot per request, however many shards its
   queries fan out to.  The slot is released after the reply is written
   (or the write fails), which is what lets the drain sequence equate
   "inflight = 0" with "every accepted request was answered"; the
   explicit match instead of [Fun.protect] keeps the single-estimate
   path free of closures. *)
let handle t w fd cs sc incoming =
  match incoming with
  | Wire.Decoded Wire.Ping -> send w fd Wire.Pong
  | _ when Atomic.get t.draining ->
    Atomic.incr t.s_refused_draining;
    send w fd (Wire.Error_reply { code = Wire.Draining; message = "server is draining" })
  | Wire.Decoded (Wire.Batch_estimate [||]) -> send w fd (Wire.Batch_reply [||])
  | _ -> (
    let prev = Atomic.fetch_and_add t.inflight 1 in
    if prev >= t.config.max_inflight then begin
      Atomic.decr t.inflight;
      Atomic.incr t.s_overloaded;
      Telemetry.Metrics.incr t.m_overloaded;
      send w fd
        (Wire.Error_reply
           {
             code = Wire.Overloaded;
             message =
               Printf.sprintf "%d requests in flight (limit %d)" prev t.config.max_inflight;
           })
    end
    else
      match send w fd (route t cs sc incoming) with
      | () -> Atomic.decr t.inflight
      | exception e ->
        Atomic.decr t.inflight;
        raise e)

let conn_loop t fd =
  let w = Wire.create_writer () in
  let r = Wire.create_reader () in
  let sc = Wire.create_scratch () in
  let cs = { jobs = Array.init (Array.length t.shards) (fun _ -> fresh_job ()) } in
  let rec loop () =
    let len = Wire.read_frame_into r fd in
    if len = -1 then () (* clean EOF at a frame boundary *)
    else if len = -2 then begin
      (* The stream is no longer frame-aligned: reply if possible, then
         hang up. *)
      Atomic.incr t.s_protocol_errors;
      try
        send w fd
          (Wire.Error_reply { code = Wire.Bad_request; message = Wire.reader_error r })
      with _ -> ()
    end
    else
      match Wire.decode_request_scratch (Wire.reader_buffer r) ~len sc with
      | Error message ->
        (* Frame boundaries are intact, so the connection survives a
           malformed payload. *)
        Atomic.incr t.s_protocol_errors;
        send w fd (Wire.Error_reply { code = Wire.Bad_request; message });
        loop ()
      | Ok incoming ->
        Atomic.incr t.s_requests;
        Telemetry.Metrics.incr t.m_requests;
        let t0 = Unix.gettimeofday () in
        handle t w fd cs sc incoming;
        Telemetry.Metrics.observe_s t.m_request_seconds (Unix.gettimeofday () -. t0);
        loop ()
  in
  try loop () with
  | Unix.Unix_error _ | Sys_error _ -> ()

let conn_thread t id fd () =
  conn_loop t fd;
  Mutex.lock t.conns_m;
  Hashtbl.remove t.conns id;
  (* Closed under the registry lock so the drain sequence can never
     shut down a descriptor that was already closed and reused. *)
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Mutex.unlock t.conns_m

(* ---------------- serve ---------------- *)

let accept_loop t =
  while not (Atomic.get t.draining) do
    match Unix.select [ t.listen_fd ] [] [] t.config.tick_s with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
      match Unix.accept t.listen_fd with
      | fd, _ ->
        Atomic.incr t.s_connections;
        Telemetry.Metrics.incr t.m_connections;
        let id = Atomic.fetch_and_add t.conn_seq 1 in
        Mutex.lock t.conns_m;
        let th = Thread.create (conn_thread t id fd) () in
        Hashtbl.replace t.conns id (fd, th);
        Mutex.unlock t.conns_m
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let quiesced t =
  let queued =
    Array.exists
      (fun sh ->
        Mutex.lock sh.sh_m;
        let q = not (Queue.is_empty sh.sh_queue) in
        Mutex.unlock sh.sh_m;
        q)
      t.shards
  in
  (not queued) && Atomic.get t.inflight = 0

let serve t =
  Array.iter (fun sh -> sh.sh_domain <- Some (Domain.spawn (dispatcher_domain t sh))) t.shards;
  accept_loop t;
  (* Drain, phase 1: stop admitting connections.  New connects are
     refused at the socket layer from here on. *)
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.address with
  | Wire.Unix_socket path -> ( try Sys.remove path with Sys_error _ -> ())
  | Wire.Tcp _ -> ());
  (* Phase 2: every accepted request finishes and its reply is written
     (connection threads decrement [inflight] after the write; requests
     arriving during this window get the typed Draining reply). *)
  while not (quiesced t) do
    Thread.delay 0.005
  done;
  (* Phase 3: retire the shard dispatchers, then unblock idle readers. *)
  Array.iter
    (fun sh ->
      Mutex.lock sh.sh_m;
      Atomic.set sh.sh_stop true;
      Condition.broadcast sh.sh_c;
      Mutex.unlock sh.sh_m)
    t.shards;
  Array.iter
    (fun sh ->
      match sh.sh_domain with
      | Some d ->
        Domain.join d;
        sh.sh_domain <- None
      | None -> ())
    t.shards;
  Mutex.lock t.conns_m;
  let remaining = Hashtbl.fold (fun _ conn acc -> conn :: acc) t.conns [] in
  List.iter
    (fun (fd, _) -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    remaining;
  Mutex.unlock t.conns_m;
  List.iter (fun (_, th) -> Thread.join th) remaining
