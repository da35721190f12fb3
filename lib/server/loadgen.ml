type group = {
  g_n : int;
  g_p50_ms : float;
  g_p99_ms : float;
}

type report = {
  connections : int;
  queries : int;
  ok : int;
  wall_s : float;
  throughput_qps : float;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
  errors : (string * int) list;
  answers : float array;
  groups : (string * group) list;
}

let error_class = function
  | Client.Transport _ -> "transport"
  | Client.Protocol _ -> "protocol"
  | Client.Server (code, _) -> Wire.error_code_to_string code

let synthetic_requests ~entries ~count ~seed =
  if entries = [] then invalid_arg "Server.Loadgen.synthetic_requests: no entries";
  if count < 0 then invalid_arg "Server.Loadgen.synthetic_requests: count < 0";
  let pool = Array.of_list entries in
  let rng = Prng.Splitmix64.create seed in
  Array.init count (fun _ ->
      let e = pool.(Prng.Splitmix64.next_below rng (Array.length pool)) in
      let lo, hi = e.Wire.domain in
      let width = hi -. lo in
      let x = lo +. (width *. Prng.Splitmix64.next_float rng) in
      let y = lo +. (width *. Prng.Splitmix64.next_float rng) in
      (e.Wire.name, Float.min x y, Float.max x y))

type mixed_request =
  | Mix_range of string * float * float
  | Mix_rect of {
      m_entry : string;
      m_x_lo : float;
      m_x_hi : float;
      m_y_lo : float;
      m_y_hi : float;
    }
  | Mix_join of { m_entry : string; m_pred : Selest.Stored.join_pred }

let mixed_kind = function
  | Mix_range _ -> "range"
  | Mix_rect _ -> "rect"
  | Mix_join _ -> "join"

let synthetic_mixed_requests ~entries ~count ~seed =
  if entries = [] then invalid_arg "Server.Loadgen.synthetic_mixed_requests: no entries";
  if count < 0 then invalid_arg "Server.Loadgen.synthetic_mixed_requests: count < 0";
  let pool = Array.of_list entries in
  let rng = Prng.Splitmix64.create seed in
  let draw lo hi = lo +. ((hi -. lo) *. Prng.Splitmix64.next_float rng) in
  Array.init count (fun _ ->
      let e = pool.(Prng.Splitmix64.next_below rng (Array.length pool)) in
      let lo, hi = e.Wire.domain in
      match e.Wire.kind with
      | Selest.Stored.Range_kind ->
        let x = draw lo hi and y = draw lo hi in
        Mix_range (e.Wire.name, Float.min x y, Float.max x y)
      | Selest.Stored.Rect_kind ->
        let ylo, yhi = Option.value ~default:e.Wire.domain e.Wire.domain_y in
        let x1 = draw lo hi and x2 = draw lo hi in
        let y1 = draw ylo yhi and y2 = draw ylo yhi in
        Mix_rect
          {
            m_entry = e.Wire.name;
            m_x_lo = Float.min x1 x2;
            m_x_hi = Float.max x1 x2;
            m_y_lo = Float.min y1 y2;
            m_y_hi = Float.max y1 y2;
          }
      | Selest.Stored.Join_kind ->
        let m_pred =
          match Prng.Splitmix64.next_below rng 3 with
          | 0 -> Selest.Stored.Join_eq
          | 1 -> Selest.Stored.Join_lt
          | _ -> Selest.Stored.Join_le
        in
        Mix_join { m_entry = e.Wire.name; m_pred })

(* Exact q-quantile of a sorted array: the smallest element with at
   least [ceil (q*n)] observations at or below it. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* The per-worker slice [i] of [total] items: contiguous, so workers can
   write their answers into disjoint ranges of one shared array. *)
let slice_bounds total workers i =
  let base = total / workers and rem = total mod workers in
  let start = (i * base) + min i rem in
  let len = base + if i < rem then 1 else 0 in
  (start, len)

type worker_out = {
  mutable w_latencies : float list;  (** per-exchange round-trip seconds *)
  mutable w_ok : int;
  mutable w_errors : (string * int) list;
  mutable w_classed : (string * float) list;
      (** per-exchange (class, latency) when the caller classifies *)
}

let new_out () = { w_latencies = []; w_ok = 0; w_errors = []; w_classed = [] }

let record_error out cls =
  out.w_errors <-
    (match List.assoc_opt cls out.w_errors with
    | Some n -> (cls, n + 1) :: List.remove_assoc cls out.w_errors
    | None -> (cls, 1) :: out.w_errors)

(* One single-query exchange's outcome: its answer lands in slot [pos]. *)
let record_answer out answers pos = function
  | Ok x ->
    answers.(pos) <- x;
    out.w_ok <- out.w_ok + 1
  | Error e -> record_error out (error_class e)

let ms x = 1000.0 *. x

(* Summarize one class's latency samples with exact percentiles. *)
let group_of samples =
  let arr = Array.of_list samples in
  Array.sort compare arr;
  { g_n = Array.length arr; g_p50_ms = ms (percentile arr 0.50); g_p99_ms = ms (percentile arr 0.99) }

let merge_groups outs =
  let by_class = Hashtbl.create 8 in
  Array.iter
    (fun o ->
      List.iter
        (fun (cls, dt) ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt by_class cls) in
          Hashtbl.replace by_class cls (dt :: cur))
        o.w_classed)
    outs;
  Hashtbl.fold (fun cls samples acc -> (cls, group_of samples) :: acc) by_class []
  |> List.sort compare

(* Every worker's latency samples, sorted for exact percentiles. *)
let sorted_latencies outs =
  let latencies =
    Array.of_list (Array.fold_left (fun acc o -> List.rev_append o.w_latencies acc) [] outs)
  in
  Array.sort compare latencies;
  latencies

(* Every worker's failures, summed per class and sorted. *)
let merged_errors outs =
  Array.fold_left
    (fun acc o ->
      List.fold_left
        (fun acc (cls, n) ->
          match List.assoc_opt cls acc with
          | Some m -> (cls, m + n) :: List.remove_assoc cls acc
          | None -> (cls, n) :: acc)
        acc o.w_errors)
    [] outs
  |> List.sort compare

(* Mean and slowest of sorted latencies, in milliseconds ([nan] if none). *)
let mean_ms sorted =
  let n = Array.length sorted in
  if n = 0 then Float.nan else ms (Array.fold_left ( +. ) 0.0 sorted /. float_of_int n)

let max_ms sorted =
  let n = Array.length sorted in
  if n = 0 then Float.nan else ms sorted.(n - 1)

(* The closed loop behind [run] and [run_mixed]: [connections] worker
   threads, each with its own client, walk contiguous slices of the
   [total] requests.  [step client answers pos stop out] performs one
   exchange starting at request [pos] (the worker's slice ends before
   [stop]), records its outcome, and returns how many requests it
   covered. *)
let closed_loop ~who ~(client_config : Client.config) ~classify ~connections ~address ~total
    step =
  if connections < 1 then invalid_arg (who ^ ": connections < 1");
  let answers = Array.make total Float.nan in
  let m_queries =
    Telemetry.Metrics.counter "loadgen_queries_total" ~help:"Queries issued by the load generator"
  in
  let m_latency =
    Telemetry.Metrics.histogram "loadgen_latency_seconds"
      ~help:"Round-trip latency of load-generator exchanges"
  in
  let outs = Array.init connections (fun _ -> new_out ()) in
  let worker i () =
    let out = outs.(i) in
    let start, len = slice_bounds total connections i in
    (* Distinct seed per worker so retry jitter decorrelates. *)
    let client =
      Client.create ~config:{ client_config with seed = Int64.add client_config.seed (Int64.of_int i) } address
    in
    let pos = ref start in
    let stop = start + len in
    while !pos < stop do
      let t0 = Unix.gettimeofday () in
      let n = step client answers !pos stop out in
      let dt = Unix.gettimeofday () -. t0 in
      out.w_latencies <- dt :: out.w_latencies;
      (match classify with
      | None -> ()
      | Some f -> out.w_classed <- (f !pos, dt) :: out.w_classed);
      Telemetry.Metrics.add m_queries n;
      Telemetry.Metrics.observe_s m_latency dt;
      pos := !pos + n
    done;
    Client.close client
  in
  let t0 = Unix.gettimeofday () in
  let threads = Array.init connections (fun i -> Thread.create (worker i) ()) in
  Array.iter Thread.join threads;
  let wall_s = Unix.gettimeofday () -. t0 in
  let latencies = sorted_latencies outs in
  {
    connections;
    queries = total;
    ok = Array.fold_left (fun n o -> n + o.w_ok) 0 outs;
    wall_s;
    throughput_qps = (if wall_s > 0.0 then float_of_int total /. wall_s else 0.0);
    mean_ms = mean_ms latencies;
    p50_ms = ms (percentile latencies 0.50);
    p95_ms = ms (percentile latencies 0.95);
    p99_ms = ms (percentile latencies 0.99);
    max_ms = max_ms latencies;
    errors = merged_errors outs;
    answers;
    groups = (match classify with None -> [] | Some _ -> merge_groups outs);
  }

let run ?(client_config = Client.default_config) ?(batch = 1) ?classify ~connections ~address
    requests =
  if batch < 1 then invalid_arg "Server.Loadgen.run: batch < 1";
  closed_loop ~who:"Server.Loadgen.run" ~client_config ~classify ~connections ~address
    ~total:(Array.length requests) (fun client answers pos stop out ->
      let n = min batch (stop - pos) in
      (if n = 1 then
         let entry, a, b = requests.(pos) in
         record_answer out answers pos (Client.estimate client ~entry ~a ~b)
       else
         match Client.batch_estimate client (Array.sub requests pos n) with
         | Ok xs ->
           Array.blit xs 0 answers pos n;
           out.w_ok <- out.w_ok + n
         | Error e -> record_error out (error_class e));
      n)

(* The mixed-kind closed loop: one exchange per request, dispatched by
   the request's kind.  Per-kind latency groups are always on — they are
   the point of a mixed run — keyed ["range"], ["rect"], ["join"]. *)
let run_mixed ?(client_config = Client.default_config) ~connections ~address requests =
  closed_loop ~who:"Server.Loadgen.run_mixed" ~client_config
    ~classify:(Some (fun pos -> mixed_kind requests.(pos)))
    ~connections ~address ~total:(Array.length requests)
    (fun client answers pos _stop out ->
      record_answer out answers pos
        (match requests.(pos) with
        | Mix_range (entry, a, b) -> Client.estimate client ~entry ~a ~b
        | Mix_rect { m_entry; m_x_lo; m_x_hi; m_y_lo; m_y_hi } ->
          Client.estimate_rect client ~entry:m_entry ~x_lo:m_x_lo ~x_hi:m_x_hi ~y_lo:m_y_lo
            ~y_hi:m_y_hi
        | Mix_join { m_entry; m_pred } -> Client.estimate_join client ~entry:m_entry ~pred:m_pred);
      1)

let report_to_string r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%d queries over %d connections in %.3fs (%.0f q/s)\n" r.queries
       r.connections r.wall_s r.throughput_qps);
  Buffer.add_string b
    (Printf.sprintf "latency ms: mean %.3f  p50 %.3f  p95 %.3f  p99 %.3f  max %.3f\n"
       r.mean_ms r.p50_ms r.p95_ms r.p99_ms r.max_ms);
  Buffer.add_string b (Printf.sprintf "ok %d / %d" r.ok r.queries);
  if r.errors <> [] then begin
    Buffer.add_string b "  errors:";
    List.iter (fun (cls, n) -> Buffer.add_string b (Printf.sprintf " %s=%d" cls n)) r.errors
  end;
  List.iter
    (fun (cls, g) ->
      Buffer.add_string b
        (Printf.sprintf "\n%s: n %d  p50 %.3f  p99 %.3f" cls g.g_n g.g_p50_ms g.g_p99_ms))
    r.groups;
  Buffer.contents b

(* ---------------- open loop ---------------- *)

type open_report = {
  rate_qps : float;
  duration_s : float;
  offered : int;
  sent : int;
  o_ok : int;
  dropped : int;
  late : int;
  achieved_qps : float;
  o_mean_ms : float;
  o_p50_ms : float;
  o_p95_ms : float;
  o_p99_ms : float;
  o_max_ms : float;
  o_errors : (string * int) list;
}

(* One virtual-client slot: a worker thread parked on its own condition
   until the scheduler hands it an arrival, plus its measurement
   accumulator. *)
type slot = {
  s_m : Mutex.t;
  s_c : Condition.t;
  mutable s_task : (int * float) option;  (* request index, scheduled arrival *)
  mutable s_stop : bool;
  s_out : worker_out;
  mutable s_late : int;
  mutable s_sent : int;
}

(* The open-loop machinery shared by {!run_open_loop} and {!run_drift}:
   schedule arrivals at [t0 + i/rate], hand each to a free virtual
   client (or drop it), and let [exec slot client arrival out] perform
   the exchange, recording success/failure into [out].  Lateness,
   latency-from-arrival and the scheduler's offered/dropped counters
   are measured here so every open-loop mode reports them the same
   way. *)
let open_loop_drive ~who ~(client_config : Client.config) ~max_clients ~late_factor
    ~rate ~duration_s ~address ~exec =
  if rate <= 0.0 then invalid_arg (who ^ ": rate must be > 0");
  if duration_s <= 0.0 then invalid_arg (who ^ ": duration_s must be > 0");
  if max_clients < 1 then invalid_arg (who ^ ": max_clients must be >= 1");
  let m_queries =
    Telemetry.Metrics.counter "loadgen_queries_total" ~help:"Queries issued by the load generator"
  in
  let m_latency =
    Telemetry.Metrics.histogram "loadgen_latency_seconds"
      ~help:"Round-trip latency of load-generator exchanges"
  in
  let m_dropped =
    Telemetry.Metrics.counter "loadgen_dropped_total"
      ~help:"Open-loop arrivals dropped: every virtual client was busy"
  in
  let m_late =
    Telemetry.Metrics.counter "loadgen_late_total"
      ~help:"Open-loop exchanges that started more than one inter-arrival late"
  in
  (* An exchange that could not start within this lag of its scheduled
     arrival counts as late: the generator (or the server's accept path)
     is slipping behind the arrival process. *)
  let late_threshold = late_factor /. rate in
  let slots =
    Array.init max_clients (fun _ ->
        {
          s_m = Mutex.create ();
          s_c = Condition.create ();
          s_task = None;
          s_stop = false;
          s_out = new_out ();
          s_late = 0;
          s_sent = 0;
        })
  in
  let free = Stack.create () in
  let free_m = Mutex.create () in
  for i = max_clients - 1 downto 0 do
    Stack.push i free
  done;
  let worker i () =
    let s = slots.(i) in
    let client =
      Client.create
        ~config:{ client_config with seed = Int64.add client_config.seed (Int64.of_int i) }
        address
    in
    let rec loop () =
      Mutex.lock s.s_m;
      while s.s_task = None && not s.s_stop do
        Condition.wait s.s_c s.s_m
      done;
      match s.s_task with
      | None -> Mutex.unlock s.s_m (* stop with no work assigned *)
      | Some (idx, sched) ->
        s.s_task <- None;
        Mutex.unlock s.s_m;
        let start = Unix.gettimeofday () in
        if start -. sched > late_threshold then begin
          s.s_late <- s.s_late + 1;
          Telemetry.Metrics.incr m_late
        end;
        s.s_sent <- s.s_sent + 1;
        exec i client idx s.s_out;
        (* Open-loop latency runs from the *scheduled* arrival, not the
           send: queueing delay born of the server falling behind the
           arrival process is the signal, and measuring from the send
           would hide exactly the collapse this mode exists to expose. *)
        let dt = Unix.gettimeofday () -. sched in
        s.s_out.w_latencies <- dt :: s.s_out.w_latencies;
        Telemetry.Metrics.incr m_queries;
        Telemetry.Metrics.observe_s m_latency dt;
        Mutex.lock free_m;
        Stack.push i free;
        Mutex.unlock free_m;
        loop ()
    in
    loop ();
    Client.close client
  in
  let threads = Array.init max_clients (fun i -> Thread.create (worker i) ()) in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. duration_s in
  let offered = ref 0 in
  let dropped = ref 0 in
  let i = ref 0 in
  (let continue = ref true in
   while !continue do
     let sched = t0 +. (float_of_int !i /. rate) in
     if sched >= deadline then continue := false
     else begin
       let now = Unix.gettimeofday () in
       (* When behind schedule, dispatch immediately: arrivals never wait
          for the generator — that would close the loop. *)
       if sched > now then Thread.delay (sched -. now);
       incr offered;
       let slot =
         Mutex.lock free_m;
         let s = if Stack.is_empty free then None else Some (Stack.pop free) in
         Mutex.unlock free_m;
         s
       in
       (match slot with
       | None ->
         (* Every virtual client is mid-exchange: the arrival is dropped
            (and counted), not queued — queueing it would turn the fixed
            arrival process into a closed loop. *)
         incr dropped;
         Telemetry.Metrics.incr m_dropped
       | Some w ->
         let s = slots.(w) in
         Mutex.lock s.s_m;
         s.s_task <- Some (!i, sched);
         Condition.signal s.s_c;
         Mutex.unlock s.s_m);
       incr i
     end
   done);
  Array.iter
    (fun s ->
      Mutex.lock s.s_m;
      s.s_stop <- true;
      Condition.signal s.s_c;
      Mutex.unlock s.s_m)
    slots;
  Array.iter Thread.join threads;
  let wall_s = Unix.gettimeofday () -. t0 in
  let outs = Array.map (fun s -> s.s_out) slots in
  let latencies = sorted_latencies outs in
  let sent = Array.fold_left (fun n s -> n + s.s_sent) 0 slots in
  {
    rate_qps = rate;
    duration_s;
    offered = !offered;
    sent;
    o_ok = Array.fold_left (fun n o -> n + o.w_ok) 0 outs;
    dropped = !dropped;
    late = Array.fold_left (fun n s -> n + s.s_late) 0 slots;
    achieved_qps = (if wall_s > 0.0 then float_of_int sent /. wall_s else 0.0);
    o_mean_ms = mean_ms latencies;
    o_p50_ms = ms (percentile latencies 0.50);
    o_p95_ms = ms (percentile latencies 0.95);
    o_p99_ms = ms (percentile latencies 0.99);
    o_max_ms = max_ms latencies;
    o_errors = merged_errors outs;
  }

let run_open_loop ?(client_config = Client.default_config) ?(max_clients = 64)
    ?(late_factor = 1.0) ~rate ~duration_s ~address requests =
  if Array.length requests = 0 then
    invalid_arg "Server.Loadgen.run_open_loop: no requests";
  let exec _slot client arrival out =
    let entry, a, b = requests.(arrival mod Array.length requests) in
    match Client.estimate client ~entry ~a ~b with
    | Ok _ -> out.w_ok <- out.w_ok + 1
    | Error e -> record_error out (error_class e)
  in
  open_loop_drive ~who:"Server.Loadgen.run_open_loop" ~client_config ~max_clients
    ~late_factor ~rate ~duration_s ~address ~exec

(* ---------------- drift (adaptive serving) ---------------- *)

type drift_report = {
  d_open : open_report;
  d_estimates : int;
  d_est_ok : int;
  d_inserts : int;
  d_insert_ok : int;
  d_observes : int;
  d_observe_ok : int;
  d_mean_abs_err : float;
  d_max_abs_err : float;
  d_est_invalid : int;
}

(* Per-slot drift accumulator, merged after the run (slots are threads;
   sharing one record would race). *)
type drift_acc = {
  mutable da_est : int;
  mutable da_est_ok : int;
  mutable da_ins : int;
  mutable da_ins_ok : int;
  mutable da_obs : int;
  mutable da_obs_ok : int;
  mutable da_err_sum : float;
  mutable da_err_max : float;
  mutable da_invalid : int;
}

let run_drift ?(client_config = Client.default_config) ?(max_clients = 64)
    ?(late_factor = 1.0) ?(insert_every = 4) ?(insert_batch = 32) ?(observe_every = 4)
    ?(window = 0.25) ?(seed = 0xd41f7L) ~rate ~duration_s ~entry ~address () =
  if insert_every < 2 then
    invalid_arg "Server.Loadgen.run_drift: insert_every must be >= 2";
  if insert_batch < 1 then
    invalid_arg "Server.Loadgen.run_drift: insert_batch must be >= 1";
  if observe_every < 2 then
    invalid_arg "Server.Loadgen.run_drift: observe_every must be >= 2";
  if not (window > 0.0 && window <= 1.0) then
    invalid_arg "Server.Loadgen.run_drift: window must be in (0, 1]";
  let name = entry.Wire.name in
  let lo, hi = entry.Wire.domain in
  let dom_w = hi -. lo in
  if not (dom_w > 0.0) then invalid_arg "Server.Loadgen.run_drift: empty entry domain";
  let win_w = window *. dom_w in
  (* The drift model: the relation's live values are Uniform over a
     window [win_w] wide whose center slides linearly from one end of
     the domain to the other across the run's scheduled arrivals.  The
     window position is a function of the arrival *index*, not the
     clock, so the stream (and the analytic truth below) is fully
     deterministic from [seed] and the run shape. *)
  let horizon = max 1 (int_of_float (Float.ceil (rate *. duration_s))) in
  let window_at arrival =
    let p =
      if horizon <= 1 then 0.0
      else float_of_int (min arrival (horizon - 1)) /. float_of_int (horizon - 1)
    in
    let c = lo +. (win_w /. 2.0) +. (p *. (dom_w -. win_w)) in
    (c -. (win_w /. 2.0), c +. (win_w /. 2.0))
  in
  (* True selectivity of Q(a,b) against the current window: the overlap
     fraction of a uniform distribution over [wl, wh]. *)
  let truth_at arrival a b =
    let wl, wh = window_at arrival in
    (* Clamped: when [a,b] covers the whole window, [wh -. wl] can land
       an ulp above [win_w] and the ratio a hair above 1, which the
       server's observe validation would (rightly) reject. *)
    Float.min 1.0 (Float.max 0.0 (Float.min b wh -. Float.max a wl) /. win_w)
  in
  let accs =
    Array.init max_clients (fun _ ->
        {
          da_est = 0;
          da_est_ok = 0;
          da_ins = 0;
          da_ins_ok = 0;
          da_obs = 0;
          da_obs_ok = 0;
          da_err_sum = 0.0;
          da_err_max = 0.0;
          da_invalid = 0;
        })
  in
  let exec slot client arrival out =
    let acc = accs.(slot) in
    (* Per-arrival PRNG: the payload of arrival [i] does not depend on
       which slot won the race to execute it. *)
    let rng = Prng.Splitmix64.create (Int64.add seed (Int64.of_int arrival)) in
    let wl, wh = window_at arrival in
    if arrival mod insert_every = 0 then begin
      let values =
        Array.init insert_batch (fun _ ->
            wl +. ((wh -. wl) *. Prng.Splitmix64.next_float rng))
      in
      acc.da_ins <- acc.da_ins + 1;
      match Client.insert client ~entry:name values with
      | Ok _ ->
        acc.da_ins_ok <- acc.da_ins_ok + 1;
        out.w_ok <- out.w_ok + 1
      | Error e -> record_error out (error_class e)
    end
    else begin
      let x = lo +. (dom_w *. Prng.Splitmix64.next_float rng) in
      let y = lo +. (dom_w *. Prng.Splitmix64.next_float rng) in
      let a = Float.min x y and b = Float.max x y in
      if arrival mod observe_every = 1 then begin
        acc.da_obs <- acc.da_obs + 1;
        match Client.observe client ~entry:name ~a ~b ~actual:(truth_at arrival a b) with
        | Ok _ ->
          acc.da_obs_ok <- acc.da_obs_ok + 1;
          out.w_ok <- out.w_ok + 1
        | Error e -> record_error out (error_class e)
      end
      else begin
        acc.da_est <- acc.da_est + 1;
        match Client.estimate client ~entry:name ~a ~b with
        | Ok est ->
          acc.da_est_ok <- acc.da_est_ok + 1;
          out.w_ok <- out.w_ok + 1;
          if not (Float.is_finite est && est >= 0.0 && est <= 1.0) then
            acc.da_invalid <- acc.da_invalid + 1
          else begin
            let err = Float.abs (est -. truth_at arrival a b) in
            acc.da_err_sum <- acc.da_err_sum +. err;
            if err > acc.da_err_max then acc.da_err_max <- err
          end
        | Error e -> record_error out (error_class e)
      end
    end
  in
  let d_open =
    open_loop_drive ~who:"Server.Loadgen.run_drift" ~client_config ~max_clients
      ~late_factor ~rate ~duration_s ~address ~exec
  in
  let est = Array.fold_left (fun n a -> n + a.da_est) 0 accs in
  let est_ok = Array.fold_left (fun n a -> n + a.da_est_ok) 0 accs in
  let invalid = Array.fold_left (fun n a -> n + a.da_invalid) 0 accs in
  let err_sum = Array.fold_left (fun s a -> s +. a.da_err_sum) 0.0 accs in
  let err_max = Array.fold_left (fun m a -> Float.max m a.da_err_max) 0.0 accs in
  let measured = est_ok - invalid in
  {
    d_open;
    d_estimates = est;
    d_est_ok = est_ok;
    d_inserts = Array.fold_left (fun n a -> n + a.da_ins) 0 accs;
    d_insert_ok = Array.fold_left (fun n a -> n + a.da_ins_ok) 0 accs;
    d_observes = Array.fold_left (fun n a -> n + a.da_obs) 0 accs;
    d_observe_ok = Array.fold_left (fun n a -> n + a.da_obs_ok) 0 accs;
    d_mean_abs_err =
      (if measured > 0 then err_sum /. float_of_int measured else Float.nan);
    d_max_abs_err = (if measured > 0 then err_max else Float.nan);
    d_est_invalid = invalid;
  }

let open_report_to_string r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "open loop: offered %d arrivals at %.0f/s over %.2fs — sent %d (%.0f/s achieved), \
        dropped %d, late %d\n"
       r.offered r.rate_qps r.duration_s r.sent r.achieved_qps r.dropped r.late);
  Buffer.add_string b
    (Printf.sprintf
       "latency from scheduled arrival, ms: mean %.3f  p50 %.3f  p95 %.3f  p99 %.3f  max %.3f\n"
       r.o_mean_ms r.o_p50_ms r.o_p95_ms r.o_p99_ms r.o_max_ms);
  Buffer.add_string b (Printf.sprintf "ok %d / %d" r.o_ok r.sent);
  if r.o_errors <> [] then begin
    Buffer.add_string b "  errors:";
    List.iter (fun (cls, n) -> Buffer.add_string b (Printf.sprintf " %s=%d" cls n)) r.o_errors
  end;
  Buffer.contents b

let drift_report_to_string r =
  let b = Buffer.create 256 in
  Buffer.add_string b (open_report_to_string r.d_open);
  Buffer.add_string b
    (Printf.sprintf "\nops: estimate %d/%d  insert %d/%d  observe %d/%d"
       r.d_est_ok r.d_estimates r.d_insert_ok r.d_inserts r.d_observe_ok r.d_observes);
  Buffer.add_string b
    (Printf.sprintf
       "\nestimate error vs generator truth: mean abs %.4f  max abs %.4f  invalid %d"
       r.d_mean_abs_err r.d_max_abs_err r.d_est_invalid);
  Buffer.contents b
