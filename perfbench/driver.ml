(* The serving benchmark: one run of one workload against a fresh
   [selest_cli serve] process.

     driver.exe --workload point --seed 1 --seconds 15 --trace 0 --cli PATH

   Untraced runs (--trace 0) measure the end-to-end metrics; traced runs
   (--trace 1) replay the same seeded exchanges over the socket and in
   process and report per-layer metrics.  The last line of standard
   output is one JSON object: correct, attempted, failed, metrics.
   perfbench/README.md explains the workloads and every metric. *)

open Perfbench
module W = Server.Wire
module C = Server.Client
module Cat = Catalog.Service
module S = Shape

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let s_of_ns ns = float_of_int ns /. 1e9

exception Bench_failure of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bench_failure s)) fmt
let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ---------------- files ---------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec copy_tree src dst =
  mkdir_p dst;
  Array.iter
    (fun f ->
      let s = Filename.concat src f and d = Filename.concat dst f in
      if Sys.is_directory s then copy_tree s d
      else Out_channel.with_open_bin d (fun oc -> output_string oc (read_file s)))
    (Sys.readdir src)

let rec files_under dir =
  List.concat_map
    (fun f ->
      let p = Filename.concat dir f in
      if Sys.is_directory p then files_under p else [ p ])
    (Array.to_list (Sys.readdir dir))

(* ---------------- the server process ---------------- *)

type server = { pid : int; log_path : string; addr : W.address; mutable alive : bool }

let live : server list ref = ref []

let spawn ~cli ~dir ~sock ~log_path (s : S.shape) =
  let args =
    [ cli; "serve"; "-d"; dir; "--socket"; sock; "--shards"; string_of_int s.S.shards ]
    @ if s.S.adaptive then [ "--adaptive"; "--rebuild-after"; string_of_int S.drift_budget ] else []
  in
  let fd =
    Unix.openfile log_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let pid = Unix.create_process cli (Array.of_list args) Unix.stdin fd fd in
  Unix.close fd;
  let srv = { pid; log_path; addr = W.Unix_socket sock; alive = true } in
  live := srv :: !live;
  srv

let reap srv status =
  srv.alive <- false;
  live := List.filter (fun s -> s != srv) !live;
  status

let client_config =
  { C.default_config with C.connect_timeout_s = 1.0; read_timeout_s = 30.0; retries = 0 }

(* Ready once a fresh connection gets an [ls] answered; no fixed sleep. *)
let await_ready srv =
  let deadline = now_ns () + 60_000_000_000 in
  let rec go () =
    (match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ -> ()
    | _, st ->
      ignore (reap srv st);
      fail "server exited during start-up:\n%s" (read_file srv.log_path));
    let client = C.create ~config:{ client_config with C.connect_timeout_s = 0.2 } srv.addr in
    match C.ls client with
    | Ok _ -> client
    | Error e ->
      C.close client;
      if now_ns () > deadline then fail "server not ready: %s" (C.error_to_string e);
      Unix.sleepf 0.0005;
      go ()
  in
  go ()

let wait_exit srv ~timeout_s =
  let deadline = now_ns () + int_of_float (timeout_s *. 1e9) in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ when now_ns () < deadline ->
      Unix.sleepf 0.002;
      go ()
    | 0, _ ->
      Unix.kill srv.pid Sys.sigkill;
      reap srv (snd (Unix.waitpid [] srv.pid))
    | _, st -> reap srv st
  in
  go ()

let kill_all () =
  List.iter
    (fun srv ->
      (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (wait_exit srv ~timeout_s:5.0))
    !live

(* The counters [serve] prints after its drain. *)
type report = {
  r_answered : int;
  r_refused : int;  (** overloaded + timeouts + refused while draining *)
  r_batches : int;
  r_merged : int;
  r_swaps : int;
  r_shard_answered : int list;
}

let parse_report text =
  let r =
    ref
      {
        r_answered = 0;
        r_refused = 0;
        r_batches = 0;
        r_merged = 0;
        r_swaps = 0;
        r_shard_answered = [];
      }
  in
  let seen = ref false in
  List.iter
    (fun line ->
      let line = String.trim line in
      (try
         Scanf.sscanf line
           "drained: %d connections, %d requests, %d answered, %d overloaded, %d timeouts, %d \
            refused draining, %d protocol errors, %d batches (%d queries merged)"
           (fun _ _ answered over tmo drn _ batches merged ->
             seen := true;
             r :=
               {
                 !r with
                 r_answered = answered;
                 r_refused = over + tmo + drn;
                 r_batches = batches;
                 r_merged = merged;
               })
       with Scanf.Scan_failure _ | End_of_file | Failure _ -> ());
      (try Scanf.sscanf line "adaptive: %d summary swaps" (fun n -> r := { !r with r_swaps = n })
       with Scanf.Scan_failure _ | End_of_file | Failure _ -> ());
      try
        Scanf.sscanf line "shard %d: %d answered" (fun _ n ->
            r := { !r with r_shard_answered = !r.r_shard_answered @ [ n ] })
      with Scanf.Scan_failure _ | End_of_file | Failure _ -> ())
    (String.split_on_char '\n' text);
  if not !seen then fail "no drain report from the server:\n%s" text;
  if !r.r_shard_answered = [] then { !r with r_shard_answered = [ !r.r_answered ] } else !r

let drain srv =
  (try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error _ -> ());
  match wait_exit srv ~timeout_s:30.0 with
  | Unix.WEXITED 0 -> parse_report (read_file srv.log_path)
  | _ -> fail "server did not drain cleanly:\n%s" (read_file srv.log_path)

(* CPU seconds (user + sys, all threads) from /proc/<pid>/stat, in clock
   ticks of 1/100 s (Linux's USER_HZ). *)
let cpu_s pid =
  let line = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let i = String.rindex line ')' in
  let fields = String.split_on_char ' ' (String.sub line (i + 2) (String.length line - i - 2)) in
  let field n = float_of_string (List.nth fields n) in
  (field 11 +. field 12) /. 100.0

(* Host-wide CPU ticks (busy, steal) from /proc/stat: steal is time the
   hypervisor ran someone else while this VM wanted the CPU. *)
let host_ticks () =
  let line = List.hd (String.split_on_char '\n' (read_file "/proc/stat")) in
  match List.filter (fun f -> f <> "") (String.split_on_char ' ' line) with
  | "cpu" :: fields ->
    let v = Array.of_list (List.map float_of_string fields) in
    let total = Array.fold_left ( +. ) 0.0 v in
    (total -. v.(3) -. v.(4) -. v.(7), v.(7), total)
  | _ -> (0.0, 0.0, 0.0)

let steal_share (_, s0, t0) (_, s1, t1) = if t1 > t0 then (s1 -. s0) /. (t1 -. t0) else 0.0

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb pid =
  let lines = String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" pid)) in
  match List.find_opt (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:") lines with
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
  | None -> fail "no VmHWM for pid %d" pid

(* ---------------- building the catalog (ANALYZE) ---------------- *)

type build =
  | B_range of { name : string; spec : string; domain : float * float; sample : float array }
  | B_rect of { name : string; spec : string; points : (float * float) array }
  | B_join of {
      name : string;
      spec : string;
      domain : float * float;
      n_r : int;
      n_s : int;
      sample_r : float array;
      sample_s : float array;
    }

let build_name = function B_range { name; _ } | B_rect { name; _ } | B_join { name; _ } -> name

(* Samples are drawn before any clock starts; set-up times only the
   public catalog build calls over them. *)
let builds env (s : S.shape) =
  let sample ds seed = Workload.Experiment.sample_of ds ~seed ~n:S.sample_size in
  Array.map
    (function
      | S.Range { entry; file; spec } ->
        let ds = S.dataset env file in
        let domain = Workload.Experiment.domain_of ds in
        B_range { name = entry; spec; domain; sample = sample ds S.sample_seed }
      | S.Rect { entry; spec } ->
        B_rect
          {
            name = entry;
            spec;
            points =
              Multidim.Dataset2d.sample_without_replacement (Lazy.force env.S.street)
                (Prng.Xoshiro256pp.create S.sample_seed) ~n:S.sample_size;
          }
      | S.Join { entry; spec } ->
        let r = S.dataset env S.join_r and sd = S.dataset env S.join_s in
        B_join
          {
            name = entry;
            spec;
            domain = Workload.Experiment.domain_of r;
            n_r = Data.Dataset.size r;
            n_s = Data.Dataset.size sd;
            sample_r = sample r S.sample_seed;
            sample_s = sample sd (Int64.add S.sample_seed 1L);
          })
    s.S.entries

let build_one svc = function
  | B_range { name; spec; domain; sample } -> Cat.build svc ~name ~spec ~domain ~sample
  | B_rect { name; spec; points } ->
    let dom = S.street_domain in
    Cat.build_rect svc ~name ~spec ~domain_x:dom ~domain_y:dom ~points
  | B_join { name; spec; domain; n_r; n_s; sample_r; sample_s } ->
    Cat.build_join svc ~name ~spec ~domain ~n_r ~n_s ~sample_r ~sample_s

let analyze ~shards bs dir =
  let services, skipped = Cat.open_sharded ~shards dir in
  if skipped <> [] then fail "fresh catalog %s skipped snapshots" dir;
  Array.iter
    (fun b ->
      let name = build_name b in
      match build_one services.(Cat.shard_of_name ~shards name) b with
      | Ok _ -> ()
      | Error msg -> fail "build %s: %s" name msg)
    bs

(* ---------------- exchanges and failure accounting ---------------- *)

let class_names = [| "overloaded"; "timeout"; "draining"; "transport"; "protocol"; "other" |]

let class_of_code = function
  | W.Overloaded -> 0
  | W.Timeout -> 1
  | W.Draining -> 2
  | W.Bad_request | W.Unknown_entry | W.Spec_mismatch | W.Internal -> 5

let class_of_error = function
  | C.Transport _ -> 3
  | C.Protocol _ -> 4
  | C.Server (code, _) -> class_of_code code

type tally = {
  lat : Pct.vec;  (** ns per latency sample (exchange, or plan) *)
  mutable ops : int;  (** answered operations *)
  mutable attempted : int;
  fails : int array;  (** failed operations per class *)
  mutable wrong : int;  (** answers that failed the correctness gate *)
  mutable wrong_note : string;
  win_ops : int array;  (** answered operations per window of the timed phase *)
  win_lat : Pct.vec array;  (** latency samples per window of the timed phase *)
  mutable win_t0 : int;  (** start of window 0; [max_int] outside the timed phase *)
  mutable win_ns : int;  (** window length *)
}

(* The timed phase is cut into windows, each tagged with the host's steal
   share (see [pooled]): 100 ms, or 1 s on [drift], whose 100 ms windows
   alternate between rebuild stalls and free runs. *)
let window_of = function S.Drift -> 1_000_000_000 | _ -> 100_000_000
let max_seconds = 60
let max_windows = max_seconds * 10

let tally () =
  {
    lat = Pct.create ();
    ops = 0;
    attempted = 0;
    fails = Array.make (Array.length class_names) 0;
    wrong = 0;
    wrong_note = "";
    win_ops = Array.make max_windows 0;
    win_lat = Array.init max_windows (fun _ -> Pct.create ~cap:64 ());
    win_t0 = max_int;
    win_ns = 1;
  }

let start_windows t ~t0 ~window =
  t.win_t0 <- t0;
  t.win_ns <- window

let failed t = Array.fold_left ( + ) 0 t.fails

let sample t ~t0 ~t1 =
  let d = float_of_int (t1 - t0) in
  Pct.push t.lat d;
  let w = (t1 - t.win_t0) / t.win_ns in
  if w >= 0 && w < max_windows then Pct.push t.win_lat.(w) d

let wrong t fmt =
  Printf.ksprintf
    (fun s ->
      t.wrong <- t.wrong + 1;
      if t.wrong_note = "" then t.wrong_note <- s)
    fmt

let exchange client t req =
  let ops = S.ops_of req in
  t.attempted <- t.attempted + ops;
  let failed_with c =
    t.fails.(c) <- t.fails.(c) + ops;
    None
  in
  match C.request client req with
  | Ok (W.Error_reply { code; _ }) -> failed_with (class_of_code code)
  | Ok resp ->
    t.ops <- t.ops + ops;
    let w = (now_ns () - t.win_t0) / t.win_ns in
    if w >= 0 && w < max_windows then t.win_ops.(w) <- t.win_ops.(w) + ops;
    Some resp
  | Error e -> failed_with (class_of_error e)

let merge ts =
  let t = tally () in
  List.iter (fun x -> t.win_ns <- max t.win_ns x.win_ns) ts;
  List.iter
    (fun x ->
      t.ops <- t.ops + x.ops;
      t.attempted <- t.attempted + x.attempted;
      Array.iteri (fun i n -> t.fails.(i) <- t.fails.(i) + n) x.fails;
      t.wrong <- t.wrong + x.wrong;
      Array.iteri (fun i n -> t.win_ops.(i) <- t.win_ops.(i) + n) x.win_ops;
      Array.iteri (fun i v -> Array.iter (Pct.push t.win_lat.(i)) (Pct.to_array v)) x.win_lat;
      if t.wrong_note = "" then t.wrong_note <- x.wrong_note;
      Array.iter (Pct.push t.lat) (Pct.to_array x.lat))
    ts;
  t

let parallel n f =
  let ds = Array.init n (fun c -> Domain.spawn (fun () -> f c)) in
  Array.map Domain.join ds

(* ---------------- answers: the gate and the oracles ---------------- *)

let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let floats_of = function
  | W.Estimate_reply x -> Some [| x |]
  | W.Batch_reply xs -> Some xs
  | _ -> None

(* What a direct Catalog.Service call answers for the request. *)
let direct services ~shards req =
  let owner name = services.(Cat.shard_of_name ~shards name) in
  let ok = function Ok x -> x | Error msg -> fail "direct call: %s" msg in
  match req with
  | W.Estimate { entry; a; b; _ } -> [| ok (Cat.answer_one (owner entry) ~name:entry ~a ~b) |]
  | W.Batch_estimate t ->
    Array.map (fun (name, a, b) -> ok (Cat.answer_one (owner name) ~name ~a ~b)) t
  | W.Estimate_rect { entry; x_lo; x_hi; y_lo; y_hi } ->
    [| ok (Cat.answer_rect (owner entry) ~name:entry ~x_lo ~x_hi ~y_lo ~y_hi) |]
  | W.Estimate_join { entry; pred } -> [| ok (Cat.answer_join (owner entry) ~name:entry ~pred) |]
  | _ -> [||]

(* The exact answer: record counts from the data files. *)
let oracle env (s : S.shape) =
  let file_of = S.file_of s in
  let range name a b = Data.Dataset.exact_selectivity (S.dataset env (file_of name)) ~lo:a ~hi:b in
  let join_size pred =
    Join.Ineqjoin.exact_inequality_size (S.dataset env S.join_r) (S.dataset env S.join_s) ~pred
  in
  let join_truth = lazy (Array.map (fun pred -> float_of_int (join_size pred)) S.preds) in
  function
  | W.Estimate { entry; a; b; _ } -> [| range entry a b |]
  | W.Batch_estimate t -> Array.map (fun (name, a, b) -> range name a b) t
  | W.Estimate_rect { x_lo; x_hi; y_lo; y_hi; _ } ->
    [| Multidim.Dataset2d.exact_selectivity (Lazy.force env.S.street) ~x_lo ~x_hi ~y_lo ~y_hi |]
  | W.Estimate_join { pred; _ } ->
    let i = match pred with Selest.Stored.Join_eq -> 0 | Join_lt -> 1 | Join_le -> 2 in
    [| (Lazy.force join_truth).(i) |]
  | _ -> [||]

(* Mean relative error accumulators, one per summary kind. *)
type mre = { mutable sum : float; mutable n : int }

let mre_add m ~served ~truth =
  if truth > 0.0 then begin
    m.sum <- m.sum +. (Float.abs (served -. truth) /. truth);
    m.n <- m.n + 1
  end

let mre_value m = if m.n = 0 then Float.nan else m.sum /. float_of_int m.n

let kind_of = function
  | W.Estimate_rect _ -> 1
  | W.Estimate_join _ -> 2
  | _ -> 0

(* ---------------- the closed loop ---------------- *)

type spans = { sp_index : int array; sp_start : int array; sp_end : int array; mutable sp_n : int }

let spans cap =
  { sp_index = Array.make cap 0; sp_start = Array.make cap 0; sp_end = Array.make cap 0; sp_n = 0 }

let record_span sp i ~t0 ~t1 =
  if sp.sp_n < Array.length sp.sp_index then begin
    sp.sp_index.(sp.sp_n) <- i;
    sp.sp_start.(sp.sp_n) <- t0;
    sp.sp_end.(sp.sp_n) <- t1;
    sp.sp_n <- sp.sp_n + 1
  end

(* Drive one connection through [samples] latency samples of its stream
   (or until [until] on the monotonic clock), starting at sample [start]
   and wrapping, and sleeping [think] seconds after each sample; [stop]
   ends it early.  [check i resp] gates each answer; [spans], when given,
   records one root span per exchange. *)
let drive ~addr ~(stream : S.stream) ~check ~t ?spans ?(think = 0.0) ?(stop = fun () -> false)
    ~start ~samples ~until () =
  let client = C.create ~config:client_config addr in
  let n = Array.length stream.S.requests / stream.S.plan in
  let k = ref 0 in
  while !k < samples && now_ns () < until && not (stop ()) do
    let base = (start + !k) mod n * stream.S.plan in
    let t0 = now_ns () in
    let ok = ref true in
    for i = base to base + stream.S.plan - 1 do
      let e0 = now_ns () in
      (match exchange client t stream.S.requests.(i) with
      | Some resp -> if not (check i resp) then ok := false
      | None -> ok := false);
      Option.iter (fun sp -> record_span sp i ~t0:e0 ~t1:(now_ns ())) spans
    done;
    if !ok then sample t ~t0 ~t1:(now_ns ());
    if think > 0.0 then Unix.sleepf think;
    incr k
  done;
  C.close client;
  !k

(* ---------------- drift: the writer and the reader ---------------- *)

let drift_stale client entries =
  match C.ls client with
  | Ok infos ->
    Ok (List.exists (fun (i : W.entry_info) -> i.W.stale && Array.mem i.W.name entries) infos)
  | Error e -> Error e

(* One writer phase: every insert frame (each acknowledged with the exact
   lifetime count), a checkpoint that waits for every rebuild swap to land,
   then the observes and the probes.  Probes of scored phases feed [m]. *)
let drift_phase client t (d : S.drift) k ~m ?spans () =
  let frames = S.drift_budget / S.drift_frame in
  let timed i req =
    let t0 = now_ns () in
    let r = exchange client t req in
    let t1 = now_ns () in
    sample t ~t0 ~t1;
    Option.iter (fun sp -> record_span sp i ~t0 ~t1) spans;
    r
  in
  let inserts = S.drift_inserts d k in
  Array.iteri
    (fun i req ->
      let expected_seen = (k * S.drift_budget) + (((i mod frames) + 1) * S.drift_frame) in
      match timed i req with
      | Some (W.Inserted { seen; _ }) when seen = expected_seen -> ()
      | Some r -> wrong t "insert ack %s, expected seen=%d" (W.response_to_string r) expected_seen
      | None -> ())
    inserts;
  let deadline = now_ns () + 30_000_000_000 in
  let rec checkpoint () =
    match drift_stale client d.S.d_entries with
    | Ok false -> ()
    | Ok true when now_ns () < deadline ->
      Unix.sleepf 0.0005;
      checkpoint ()
    | Ok true -> wrong t "phase %d: rebuild swaps did not land within 30 s" k
    | Error e -> wrong t "phase %d checkpoint: %s" k (C.error_to_string e)
  in
  checkpoint ();
  let observes, probes = S.drift_feedback d k in
  let base = Array.length inserts in
  Array.iteri
    (fun i req ->
      match timed (base + i) req with
      | Some (W.Observed x) when Float.is_finite x -> ()
      | Some r -> wrong t "observe ack %s" (W.response_to_string r)
      | None -> ())
    observes;
  let w = k mod S.drift_windows in
  let base = base + Array.length observes in
  Array.iteri
    (fun i req ->
      match timed (base + i) req with
      | Some (W.Estimate_reply x) when Float.is_finite x && x >= 0.0 && x <= 1.0 ->
        Option.iter
          (fun m ->
            let e = i / S.drift_probes and j = i mod S.drift_probes in
            let _, _, truth = d.S.probes.(w).(e).(j) in
            mre_add m ~served:x ~truth)
          m
      | Some r -> wrong t "probe answer %s" (W.response_to_string r)
      | None -> ())
    probes

let in_unit = function
  | W.Estimate_reply x -> Float.is_finite x && x >= 0.0 && x <= 1.0
  | _ -> false

(* Writer phases [from, ...) until [until] (and at least [min] phases) on
   one connection, the reader's closed loop on the other until the writer
   is done.  Returns the phases written. *)
let drift_drive ?spans ~addr ~d ~(reader : S.stream) ~tw ~tr ~from ~min ~until ~m ~reader_start () =
  let done_ = Atomic.make false in
  let writer_spans, reader_spans =
    match spans with Some (w, r) -> (Some w, Some r) | None -> (None, None)
  in
  let res =
    parallel 2 (fun c ->
        if c = 0 then begin
          let client = C.create ~config:client_config addr in
          let k = ref from in
          while !k < from + min || now_ns () < until do
            drift_phase client tw (d !k) !k ~m ?spans:writer_spans ();
            incr k
          done;
          C.close client;
          Atomic.set done_ true;
          !k - from
        end
        else begin
          let check _ r =
            if in_unit r then true
            else begin
              wrong tr "reader answer %s" (W.response_to_string r);
              false
            end
          in
          drive ~addr ~stream:reader ~check ~t:tr ?spans:reader_spans ~think:S.drift_think_s
            ~stop:(fun () -> Atomic.get done_)
            ~start:reader_start ~samples:max_int ~until:max_int ()
        end)
  in
  (res.(0), res.(1))

(* ---------------- host record and output ---------------- *)

let json_num x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields) ^ "}"

let json_list f xs = "[" ^ String.concat ", " (Array.to_list (Array.map f xs)) ^ "]"
let json_metrics ms =
  let metric (k, v, unit) = (k, json_obj [ ("value", json_num v); ("unit", json_str unit) ]) in
  json_obj (List.map metric ms)

(* The result line: the last line of standard output. *)
let print_result ~correct ~attempted ~failed metrics =
  print_endline
    (json_obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int (max 1 attempted));
         ("failed", string_of_int failed);
         ("metrics", json_metrics metrics);
       ])

(* The run record: appended to [path] and printed before the result. *)
let record ~path fields =
  let line = json_obj fields in
  Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 path (fun oc ->
      output_string oc (line ^ "\n"));
  print_endline line

(* ---------------- one run ---------------- *)

type args = {
  workload : S.workload;
  seed : int64;
  seconds : int;
  traced : bool;
  cli : string;
  work : string;
}

(* Stream sizes: warm-up samples per connection (also the MRE probe set),
   and the stream length the timed phase wraps over. *)
let sizing = function
  | S.Point -> (8192, 16384)
  | S.Plan_batch -> (512, 2048)
  | S.Cold_catalog -> (8192, 65536)
  | S.Drift -> (0, 65536)

let drift_scored = 4

let make_streams env (s : S.shape) ~seed ~length =
  match s.S.workload with
  | S.Point -> S.point_streams env s ~seed ~length
  | S.Plan_batch -> S.plan_streams env s ~seed ~length
  | S.Cold_catalog -> S.cold_streams env s ~seed ~length
  | S.Drift -> [| S.drift_reader env s ~seed ~length |]

type prepared = {
  shape : S.shape;
  env : S.env;
  bs : build array;
  probes : S.stream array;  (** the warm-up pass, also the MRE probe set: fixed, not seeded *)
  streams : S.stream array;  (** the timed phase, from the run's seed *)
  drift : (int -> S.drift) option;  (** writer inputs of phase k *)
  first : W.request;
}

(* The MRE probe set is the same in every run, so [mre] is a property of
   the served summaries alone and repeats exactly. *)
let probe_seed = S.data_seed

let prepare a =
  let shape = S.shape a.workload in
  let env = S.env (S.files shape) in
  let warm, length = sizing a.workload in
  let streams = make_streams env shape ~seed:a.seed ~length in
  let probes =
    if shape.S.adaptive then [||] else make_streams env shape ~seed:probe_seed ~length:warm
  in
  let drift =
    if shape.S.adaptive then begin
      let scored = S.drift_inputs shape ~seed:probe_seed in
      let seeded = S.drift_inputs shape ~seed:a.seed in
      Some (fun k -> if k < drift_scored then scored else seeded)
    end
    else None
  in
  let first = (if shape.S.adaptive then streams else probes).(0).S.requests.(0) in
  { shape; env; bs = builds env shape; probes; streams; drift; first }

(* Set-up: empty directory -> ANALYZE -> server start -> first answer.
   The heap is compacted first, so every set-up starts from the same
   collector state.  Returns the server, its catalog, the set-up time and
   the part of it spent in ANALYZE. *)
let setup a p ~dir =
  rm_rf dir;
  mkdir_p dir;
  let cat = Filename.concat dir "catalog" in
  Gc.compact ();
  let t0 = now_ns () in
  analyze ~shards:p.shape.S.shards p.bs cat;
  let built = now_ns () in
  let srv =
    spawn ~cli:a.cli ~dir:cat ~sock:(Filename.concat dir "s.sock")
      ~log_path:(Filename.concat dir "serve.log") p.shape
  in
  let client = await_ready srv in
  let first = exchange client (tally ()) p.first in
  let t1 = now_ns () in
  C.close client;
  if Option.bind first floats_of = None then fail "first request was not answered";
  (srv, cat, s_of_ns (t1 - t0), s_of_ns (built - t0))

(* [run.py] always builds with this dune profile. *)
let profile = "release"

let host_fields a (p : prepared) =
  let per = S.per_shard p.shape in
  [
    ("workload", json_str (S.name a.workload));
    ("seed", Int64.to_string a.seed);
    ("seconds", string_of_int a.seconds);
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", json_str Sys.ocaml_version);
    ("profile", json_str profile);
    ("shards", string_of_int p.shape.S.shards);
    ("connections", string_of_int p.shape.S.connections);
    ("capacity_per_shard", string_of_int S.capacity);
    ("entries", string_of_int (Array.length p.shape.S.entries));
    ("entries_per_shard", json_list string_of_int per);
    ( "entries_to_capacity",
      json_num (float_of_int (Array.fold_left max 0 per) /. float_of_int S.capacity) );
  ]

let pct_ms t q =
  match Pct.percentile (Pct.to_array t.lat) q with
  | Ok ns -> ns /. 1e6
  | Error msg -> fail "whole-run percentile: %s" msg

let class_fields t =
  Array.to_list (Array.mapi (fun i n -> (class_names.(i), string_of_int n)) t.fails)

(* Expected answers (direct calls on the served directory) for every
   request of every stream, and the gate that compares against them. *)
let expectations p ~cat sts =
  let shards = p.shape.S.shards in
  let config =
    { Cat.default_config with Cat.capacity = max S.capacity (Array.length p.shape.S.entries) }
  in
  let services, _ = Cat.open_sharded ~config ~shards cat in
  Array.map (fun st -> Array.map (direct services ~shards) st.S.requests) sts

let gate expected c t i resp =
  match floats_of resp with
  | Some xs
    when Array.length xs = Array.length expected.(c).(i)
         && Array.for_all2 same xs expected.(c).(i) ->
    true
  | _ ->
    wrong t "conn %d request %d: served %s, direct call gives [%s]" c i (W.response_to_string resp)
      (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") expected.(c).(i))));
    false

(* The warm-up pass: [warm] samples of each connection's probe stream,
   gated like the timed phase and scored against the exact oracles. *)
let warm_up p ~addr ~expected ~warm =
  let res =
    parallel p.shape.S.connections (fun c ->
        let t = tally () in
        let st = p.probes.(c) in
        let served = Array.make (Array.length st.S.requests) [||] in
        let check i r =
          let ok = gate expected c t i r in
          if ok then served.(i) <- Option.get (floats_of r);
          ok
        in
        ignore (drive ~addr ~stream:st ~check ~t ~start:0 ~samples:warm ~until:max_int ());
        (t, served))
  in
  let truth = oracle p.env p.shape in
  let m = Array.init 3 (fun _ -> { sum = 0.0; n = 0 }) in
  Array.iteri
    (fun c (_, served) ->
      for i = 0 to (warm * p.probes.(c).S.plan) - 1 do
        let req = p.probes.(c).S.requests.(i) in
        Array.iter2
          (fun served truth -> mre_add m.(kind_of req) ~served ~truth)
          served.(i) (truth req)
      done)
    res;
  let used = List.filter (fun x -> x.n > 0) (Array.to_list m) in
  let mre = Stats.Descriptive.mean (Array.of_list (List.map mre_value used)) in
  (merge (Array.to_list (Array.map fst res)), mre, List.fold_left (fun n x -> n + x.n) 0 used)

(* The timed phase: [run] drives the connections until [until] while a
   sibling domain samples, at every window boundary, the server's CPU
   clock and the host's steal counter.  Returns what [run] returns, the
   wall time, the server CPU seconds over the whole phase, per-window
   server CPU seconds and host steal shares, and the peak RSS. *)
let timed_phase ~srv ~seconds ~window ~run =
  let n = seconds * 1_000_000_000 / window in
  let t0 = now_ns () in
  let until = t0 + (n * window) in
  let cpu_at = Array.make (n + 1) (cpu_s srv.pid) in
  let host_at = Array.make (n + 1) (host_ticks ()) in
  let monitor =
    Domain.spawn (fun () ->
        for w = 1 to n do
          let rec wait () =
            let d = t0 + (w * window) - now_ns () in
            if d > 0 then begin
              Unix.sleepf (float_of_int d /. 1e9);
              wait ()
            end
          in
          wait ();
          cpu_at.(w) <- cpu_s srv.pid;
          host_at.(w) <- host_ticks ()
        done)
  in
  let r = run ~t0 ~until in
  let t1 = now_ns () in
  let cpu_end = cpu_s srv.pid in
  Domain.join monitor;
  let cpu = Array.init n (fun w -> cpu_at.(w + 1) -. cpu_at.(w)) in
  let steal = Array.init n (fun w -> steal_share host_at.(w) host_at.(w + 1)) in
  (r, s_of_ns (t1 - t0), cpu_end -. cpu_at.(0), cpu, steal, peak_rss_mb srv.pid)

(* The quiet windows of the timed phase: those whose host steal share is
   at most 2%, or at most the lower quartile of all windows' shares if
   that is higher.  Steal is time the hypervisor ran another tenant while
   this VM wanted the CPU; a burst cuts throughput up to fourfold.  Every
   workload keeps the CPUs busy throughout (a client and the server
   alternate on each connection), so a window's steal measures the other
   tenants, not this program.  The timing metrics pool the quiet
   windows; the run record keeps the whole-phase figures beside them. *)
let clean_steal = 0.02

type pooled = {
  qps : float;
  p50_ms : float;
  p99_ms : float;
  cpu_us_per_op : float;
  quiet : int;  (** quiet windows *)
  samples : int;  (** latency samples in them *)
}

let pooled ~ops ~lat ~window ~cpu ~steal =
  let n = Array.length cpu in
  let cut = Float.max clean_steal (Stats.Quantile.quantile steal 0.25) in
  let quiet = List.filter (fun w -> steal.(w) <= cut) (List.init n Fun.id) in
  let samples = Pct.concat (List.map (fun w -> lat.win_lat.(w)) quiet) in
  let answered = List.fold_left (fun acc w -> acc + ops.win_ops.(w)) 0 quiet in
  let pct q =
    match Pct.percentile samples q with
    | Ok ns -> ns /. 1e6
    | Error msg -> fail "quiet windows: %s" msg
  in
  {
    qps = float_of_int answered /. (float_of_int (List.length quiet) *. s_of_ns window);
    p50_ms = pct 0.5;
    p99_ms = pct 0.99;
    cpu_us_per_op =
      List.fold_left (fun acc w -> acc +. cpu.(w)) 0.0 quiet
      *. 1e6 /. float_of_int (max 1 answered);
    quiet = List.length quiet;
    samples = Array.length samples;
  }

(* Set-ups per run: [setups_before] before the timed phase (the last of
   them serves it) and [setups_after] after it, so that their median
   spans the run rather than a few seconds of it. *)
let setups_before = 4
let setups_after = 3

(* A latency sample this long is a read that waited out a rebuild. *)
let stall_ns = 2_000_000

let untraced a p =
  let run_dir = Filename.concat a.work (Printf.sprintf "run-%d" (Unix.getpid ())) in
  let setups = ref [] and analyzes = ref [] in
  let set_up r =
    let dir = Filename.concat run_dir (Printf.sprintf "setup-%d" r) in
    let srv, cat, secs, analyze_s = setup a p ~dir in
    setups := secs :: !setups;
    analyzes := analyze_s :: !analyzes;
    (srv, dir, cat)
  in
  let discard (srv, dir, _) =
    ignore (drain srv);
    rm_rf dir
  in
  let last = ref (set_up 0) in
  for r = 1 to setups_before - 1 do
    discard !last;
    last := set_up r
  done;
  let srv, _, cat = !last in
  let addr = srv.addr in
  let conns = p.shape.S.connections in
  let warm, _ = sizing a.workload in
  let window = window_of a.workload in
  (* [t] counts every operation; [lat] holds the latency samples: every
     exchange's, or on drift the reader's. *)
  let warm_t, mre, mre_n, (t, lat), wall, cpu_total, cpu, steal, rss, report =
    match p.drift with
    | None ->
      let warm_t, mre, mre_n = warm_up p ~addr ~expected:(expectations p ~cat p.probes) ~warm in
      let expected = expectations p ~cat p.streams in
      let r, wall, cpu_total, cpu, steal, rss =
        timed_phase ~srv ~seconds:a.seconds ~window ~run:(fun ~t0 ~until ->
            let t =
              merge
                (Array.to_list
                   (parallel conns (fun c ->
                        let t = tally () in
                        start_windows t ~t0 ~window;
                        ignore
                          (drive ~addr ~stream:p.streams.(c) ~check:(gate expected c t) ~t ~start:0
                             ~samples:max_int ~until ());
                        t)))
            in
            (t, t))
      in
      (warm_t, mre, mre_n, r, wall, cpu_total, cpu, steal, rss, drain srv)
    | Some d ->
      let reader = p.streams.(0) in
      let m = { sum = 0.0; n = 0 } in
      let tw0 = tally () and tr0 = tally () in
      let ph0, rk0 =
        drift_drive ~addr ~d ~reader ~tw:tw0 ~tr:tr0 ~from:0 ~min:drift_scored ~until:0 ~m:(Some m)
          ~reader_start:1 ()
      in
      let phases = ref ph0 in
      let r, wall, cpu_total, cpu, steal, rss =
        timed_phase ~srv ~seconds:a.seconds ~window ~run:(fun ~t0 ~until ->
            let tw = tally () and tr = tally () in
            start_windows tw ~t0 ~window;
            start_windows tr ~t0 ~window;
            let ph, _ =
              drift_drive ~addr ~d ~reader ~tw ~tr ~from:ph0 ~min:1 ~until ~m:None
                ~reader_start:(1 + rk0) ()
            in
            phases := !phases + ph;
            (merge [ tw; tr ], tr))
      in
      let report = drain srv in
      let warm_t = merge [ tw0; tr0 ] in
      let expected_swaps = !phases * 2 * Array.length p.shape.S.entries in
      if report.r_swaps <> expected_swaps then
        wrong warm_t "server swapped %d summaries over %d phases; expected %d" report.r_swaps
          !phases expected_swaps;
      (warm_t, mre_value m, m.n, r, wall, cpu_total, cpu, steal, rss, report)
  in
  for r = 0 to setups_after - 1 do
    discard (set_up (setups_before + r))
  done;
  rm_rf run_dir;
  let correct = warm_t.wrong = 0 && t.wrong = 0 in
  let setups = Array.of_list (List.rev !setups) in
  let latencies = Pct.to_array lat.lat in
  let stalled =
    Array.fold_left (fun n x -> if x >= float_of_int stall_ns then n + 1 else n) 0 latencies
  in
  let w = pooled ~ops:t ~lat ~window ~cpu ~steal in
  let metrics =
    [
      ("setup_s", Stats.Quantile.quantile setups 0.5, "s");
      ("throughput_qps", w.qps, "1/s");
      ("p50_ms", w.p50_ms, "ms");
      ("p99_ms", w.p99_ms, "ms");
      ("cpu_us_per_op", w.cpu_us_per_op, "us");
      ("server_rss_mb", rss, "MiB");
      ("mre", mre, "ratio");
      ("ok_ratio", float_of_int t.ops /. float_of_int (max 1 t.attempted), "ratio");
    ]
  in
  record ~path:(Filename.concat a.work "results.jsonl")
    (host_fields a p
    @ [
        ("trace", "0");
        ("correct", string_of_bool correct);
        ("metrics", json_metrics metrics);
        ("setup_samples", json_list json_num setups);
        ("setup_analyze_s", json_list json_num (Array.of_list (List.rev !analyzes)));
        ("latency_samples", string_of_int (Array.length latencies));
        ( "stalled_share",
          json_num (float_of_int stalled /. float_of_int (max 1 (Array.length latencies))) );
        ("mre_samples", string_of_int mre_n);
        ("timed_s", json_num wall);
        ("answered_ops", string_of_int t.ops);
        ("attempted_ops", string_of_int t.attempted);
        ("error_ratio", json_num (float_of_int (failed t) /. float_of_int (max 1 t.attempted)));
        ("failed_by_class", json_obj (class_fields t));
        ("warmup_failed", string_of_int (failed warm_t));
        ("server_answered", string_of_int report.r_answered);
        ("server_refused", string_of_int report.r_refused);
        ("swaps", string_of_int report.r_swaps);
        ("windows", string_of_int (Array.length steal));
        ("quiet_windows", string_of_int w.quiet);
        ("quiet_latency_samples", string_of_int w.samples);
        ("window_steal_share", json_list json_num steal);
        ("window_ops", json_list string_of_int (Array.sub t.win_ops 0 (Array.length steal)));
        ("host_steal_share", json_num (Stats.Descriptive.mean steal));
        ("whole_run_throughput_qps", json_num (float_of_int t.ops /. wall));
        ("whole_run_p50_ms", json_num (pct_ms lat 0.5));
        ("whole_run_p99_ms", json_num (pct_ms lat 0.99));
        ("whole_run_cpu_us_per_op", json_num (cpu_total *. 1e6 /. float_of_int (max 1 t.ops)));
        ("wrong", json_str (if warm_t.wrong_note <> "" then warm_t.wrong_note else t.wrong_note));
      ]);
  print_result ~correct ~attempted:(warm_t.attempted + t.attempted)
    ~failed:(failed warm_t + failed t) metrics;
  if not correct then exit 1

(* ---------------- the traced run ---------------- *)

(* Child stages: the public calls the server makes for one exchange. *)
let stages = [| "wire.decode"; "catalog.answer"; "catalog.tick"; "wire.encode" |]

type replayed = {
  call : string;  (** range, join.eq, join.lt, join.le, rect, insert or observe *)
  dur : int array;  (** ns per stage *)
  words : float array;  (** minor words per stage *)
  ops : int;
  values : int;  (** values an insert frame carries *)
  ticked : bool;  (** the dispatcher ran the adaptive tick after the call *)
  runs : int;  (** runs of equal adjacent entry names resolved *)
  req_bytes : int;
  reply_bytes : int;
  cells : int;  (** grid cells spanned by the frame's range predicates *)
  ranges : int;
  missed : bool;  (** an entry it names was not resident before the call *)
}

type replayer = {
  services : Cat.t array;
  shards : int;
  scratch : W.scratch;
  mutable buf : Bytes.t;
  enc : Buffer.t;
  names : string array;
  qa : float array;
  qb : float array;
  out : float array;
}

let replayer services ~shards =
  let n = 4096 in
  {
    services;
    shards;
    scratch = W.create_scratch ();
    buf = Bytes.create 65536;
    enc = Buffer.create 65536;
    names = Array.make n "";
    qa = Array.make n 0.0;
    qb = Array.make n 0.0;
    out = Array.make n 0.0;
  }

let owner rp name = rp.services.(Cat.shard_of_name ~shards:rp.shards name)

let range_names = function
  | W.Estimate { entry; a; b; _ } -> [| (entry, a, b) |]
  | W.Batch_estimate t -> t
  | _ -> [||]

(* Cells a range predicate spans on its entry's grid. *)
let cells_spanned rp (name, a, b) =
  match Cat.info (owner rp name) name with
  | Some { Cat.cells; domain = lo, hi; _ } when hi > lo ->
    let w = (hi -. lo) /. float_of_int cells in
    let cell x = max 0 (min (cells - 1) (int_of_float (Float.floor ((x -. lo) /. w)))) in
    cell b - cell a + 1
  | _ -> 0

let runs_of rp triples =
  let last = Array.make rp.shards "" and runs = ref 0 in
  Array.iter
    (fun (name, _, _) ->
      let s = Cat.shard_of_name ~shards:rp.shards name in
      if last.(s) <> name then incr runs;
      last.(s) <- name)
    triples;
  !runs

let answer_range rp triples =
  (* Per shard, in request order: the engine's sub-batches. *)
  let n = Array.length triples in
  let result = Array.make n 0.0 in
  for s = 0 to rp.shards - 1 do
    let k = ref 0 in
    Array.iter
      (fun (name, a, b) ->
        if Cat.shard_of_name ~shards:rp.shards name = s then begin
          rp.names.(!k) <- name;
          rp.qa.(!k) <- a;
          rp.qb.(!k) <- b;
          incr k
        end)
      triples;
    if !k > 0 then begin
      Cat.answer_into rp.services.(s) ~n:!k ~names:rp.names ~a:rp.qa ~b:rp.qb ~out:rp.out;
      let j = ref 0 in
      Array.iteri
        (fun i (name, _, _) ->
          if Cat.shard_of_name ~shards:rp.shards name = s then begin
            result.(i) <- rp.out.(!j);
            incr j
          end)
        triples
    end
  done;
  result

let ok_or = function Ok x -> x | Error msg -> fail "replay: %s" msg

let answer rp = function
  | Ok W.Fast_estimate ->
    let sc = rp.scratch in
    rp.names.(0) <- sc.W.s_entry;
    rp.qa.(0) <- sc.W.s_q.W.sa;
    rp.qb.(0) <- sc.W.s_q.W.sb;
    Cat.answer_into (owner rp sc.W.s_entry) ~n:1 ~names:rp.names ~a:rp.qa ~b:rp.qb ~out:rp.out;
    W.Estimate_reply rp.out.(0)
  | Ok (W.Decoded (W.Batch_estimate t)) -> W.Batch_reply (answer_range rp t)
  | Ok (W.Decoded (W.Estimate_rect { entry; x_lo; x_hi; y_lo; y_hi })) ->
    W.Estimate_reply (ok_or (Cat.answer_rect (owner rp entry) ~name:entry ~x_lo ~x_hi ~y_lo ~y_hi))
  | Ok (W.Decoded (W.Estimate_join { entry; pred })) ->
    W.Estimate_reply (ok_or (Cat.answer_join (owner rp entry) ~name:entry ~pred))
  | Ok (W.Decoded (W.Insert { entry; values })) ->
    let sampled, seen = ok_or (Cat.insert (owner rp entry) ~name:entry values) in
    W.Inserted { sampled; seen }
  | Ok (W.Decoded (W.Observe { entry; a; b; actual })) ->
    W.Observed (ok_or (Cat.observe (owner rp entry) ~name:entry ~a ~b ~actual))
  | Ok (W.Decoded r) -> fail "replay: unexpected request %s" (W.request_to_string r)
  | Error msg -> fail "replay: decode: %s" msg

let entry_of = function
  | W.Estimate { entry; _ }
  | W.Estimate_rect { entry; _ }
  | W.Estimate_join { entry; _ }
  | W.Insert { entry; _ }
  | W.Observe { entry; _ } -> entry
  | W.Batch_estimate t when Array.length t > 0 ->
    let name, _, _ = t.(0) in
    name
  | _ -> ""

let call_of = function
  | W.Estimate _ | W.Batch_estimate _ -> "range"
  | W.Estimate_join { pred = Selest.Stored.Join_eq; _ } -> "join.eq"
  | W.Estimate_join { pred = Selest.Stored.Join_lt; _ } -> "join.lt"
  | W.Estimate_join { pred = Selest.Stored.Join_le; _ } -> "join.le"
  | W.Estimate_rect _ -> "rect"
  | W.Insert _ -> "insert"
  | W.Observe _ -> "observe"
  | r -> W.request_to_string r

(* Replay one request as the server handles it: decode, answer, the
   adaptive tick the dispatcher runs after each batch, encode. *)
let replay rp req =
  let payload = W.encode_request req in
  let len = String.length payload in
  if Bytes.length rp.buf < len then rp.buf <- Bytes.create (2 * len);
  Bytes.blit_string payload 0 rp.buf 0 len;
  let triples = range_names req in
  let cells = Array.fold_left (fun n q -> n + cells_spanned rp q) 0 triples in
  let names =
    if Array.length triples > 0 then Array.map (fun (n, _, _) -> n) triples else [| entry_of req |]
  in
  let missed =
    Array.exists
      (fun name ->
        match Cat.info (owner rp name) name with Some i -> not i.Cat.cached | None -> false)
      names
  in
  let runs = if Array.length triples > 0 then runs_of rp triples else 1 in
  let dur = Array.make 4 0 and words = Array.make 4 0.0 in
  let stage i f =
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let r = f () in
    dur.(i) <- now_ns () - t0;
    words.(i) <- Gc.minor_words () -. w0;
    r
  in
  let decoded = stage 0 (fun () -> W.decode_request_scratch rp.buf ~len rp.scratch) in
  let resp = stage 1 (fun () -> answer rp decoded) in
  let entry = entry_of req in
  let svc = owner rp entry in
  let ticked = Cat.adaptive_enabled svc in
  if ticked then ignore (stage 2 (fun () -> Cat.adaptive_tick svc));
  stage 3 (fun () ->
      Buffer.clear rp.enc;
      W.encode_response_into rp.enc resp);
  {
    call = call_of req;
    dur;
    words;
    ops = S.ops_of req;
    values = (match req with W.Insert { values; _ } -> Array.length values | _ -> 0);
    ticked;
    runs;
    req_bytes = len;
    reply_bytes = Buffer.length rp.enc;
    cells;
    ranges = Array.length triples;
    missed;
  }

(* Run every queued rebuild to completion, as a checkpoint does. *)
let rec settle rp =
  let busy =
    Array.exists
      (fun svc ->
        (Cat.adaptive_stats svc).Cat.rebuild_in_flight
        || List.exists (fun (i : Cat.info) -> i.Cat.stale) (Cat.infos svc))
      rp.services
  in
  if busy then begin
    Array.iter Cat.adaptive_drain rp.services;
    settle rp
  end

let time_ns f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* Builds, timed call by call: what set-up spends in each layer. *)
let build_metrics (bs : build array) ~side ~cat =
  let side_svc, _ = Cat.open_dir side in
  let snaps = Filename.concat side "snap" in
  mkdir_p snaps;
  let fits = ref [] and kernels = ref [] and reduces = ref [] in
  let saves = ref [] and parses = ref [] in
  let builds = ref [] in
  Array.iter
    (fun b ->
      (match b with
      | B_range { name; spec; domain; sample } ->
        let parsed =
          match Selest.Estimator.spec_of_string spec with Ok p -> p | Error e -> fail "%s" e
        in
        let est, fit = time_ns (fun () -> Selest.Estimator.build parsed ~domain sample) in
        let stored, reduce =
          time_ns (fun () -> Selest.Stored.of_estimator ~cells:256 ~domain est)
        in
        let entry =
          {
            Catalog.Snapshot.name;
            spec;
            inserts = 0;
            stale = false;
            provenance = None;
            summary = Selest.Stored.Range stored;
          }
        in
        let (), save = time_ns (fun () -> Catalog.Snapshot.save ~dir:snaps entry) in
        let text = Selest.Stored.any_to_string (Selest.Stored.Range stored) in
        let _, parse = time_ns (fun () -> Selest.Stored.any_of_string text) in
        fits := fit :: !fits;
        if spec = "kernel" then kernels := fit :: !kernels;
        reduces := reduce :: !reduces;
        saves := save :: !saves;
        parses := parse :: !parses
      | B_rect _ | B_join _ -> ());
      let r, t = time_ns (fun () -> build_one side_svc b) in
      (match r with Ok _ -> () | Error e -> fail "side build: %s" e);
      builds := t :: !builds)
    bs;
  let ms l = Stats.Descriptive.mean (Array.of_list (List.map float_of_int l)) /. 1e6 in
  let files =
    List.filter (fun f -> Filename.check_suffix f Catalog.Snapshot.extension) (files_under cat)
  in
  let loads =
    List.map
      (fun path ->
        match time_ns (fun () -> Catalog.Snapshot.load ~path) with
        | Ok _, t -> float_of_int t
        | Error e, _ -> fail "load %s: %s" path e)
      files
  in
  let bytes = List.map (fun f -> float_of_int (Unix.stat f).Unix.st_size) files in
  [
    ("catalog.build_ms", ms !builds, "ms");
    ("estimator.fit_ms.kernel", ms !kernels, "ms");
    ("estimator.fit_ms.mean", ms !fits, "ms");
    ("stored.reduce_ms", ms !reduces, "ms");
    ("stored.parse_us", ms !parses *. 1e3, "us");
    ("snapshot.save_ms", ms !saves, "ms");
    ("snapshot.load_us", Stats.Descriptive.mean (Array.of_list loads) /. 1e3, "us");
    ("snapshot.bytes_per_entry", Stats.Descriptive.mean (Array.of_list bytes), "bytes");
  ]

(* Plans [from, from + count) of every connection's stream, taken in
   turn across the connections as the server saw them interleaved. *)
let segment (sts : S.stream array) ~from ~count f =
  for k = from to from + count - 1 do
    Array.iteri
      (fun c (st : S.stream) ->
        let nplans = Array.length st.S.requests / st.S.plan in
        for j = 0 to st.S.plan - 1 do
          let i = (k mod nplans * st.S.plan) + j in
          f c i st.S.requests.(i)
        done)
      sts
  done

(* Drift writer phases [0, phases) as the server handles them: [f k i req]
   replays request [i] of phase [k].  Between a phase's inserts and its
   feedback the rebuilds they launched run to completion, as the
   writer's checkpoint waits for them.  Returns each phase's settle time. *)
let replay_phases rp d ~phases f =
  let settles = ref [] in
  for k = 0 to phases - 1 do
    let inserts = S.drift_inserts (d k) k in
    Array.iteri (f k) inserts;
    let (), ns = time_ns (fun () -> settle rp) in
    settles := ns :: !settles;
    let observes, probes = S.drift_feedback (d k) k in
    let base = Array.length inserts in
    Array.iteri (fun i req -> f k (base + i) req) observes;
    Array.iteri (fun i req -> f k (base + Array.length observes + i) req) probes
  done;
  List.rev !settles

let median_of f = function
  | [] -> None
  | xs -> Some (Stats.Quantile.quantile (Array.of_list (List.map f xs)) 0.5)

(* Per-call costs by request kind over replayed exchanges: the median
   call, so that the odd call a background rebuild held up (see
   [catalog.rebuild_ms]) does not count.  [None] where the replay made no
   such call.  [settles] are drift phases' settle times; each phase
   rebuilds every one of the [entries] once. *)
let call_costs (rs : replayed list) ~settles ~entries =
  let median call f = median_of f (List.filter (fun r -> r.call = call) rs) in
  let us r = float_of_int r.dur.(1) /. 1e3 in
  [
    ("catalog.join_us.eq", median "join.eq" us, "us");
    ("catalog.join_us.lt", median "join.lt" us, "us");
    ("catalog.join_us.le", median "join.le" us, "us");
    ("catalog.join_words.lt", median "join.lt" (fun r -> r.words.(1)), "words");
    ("catalog.rect_us", median "rect" us, "us");
    ("catalog.insert_us_per_value", median "insert" (fun r -> us r /. float_of_int r.values), "us");
    ("catalog.observe_us", median "observe" us, "us");
    ( "catalog.tick_us",
      median_of (fun r -> float_of_int r.dur.(2) /. 1e3) (List.filter (fun r -> r.ticked) rs),
      "us" );
    ( "catalog.rebuild_ms",
      median_of (fun ns -> float_of_int ns /. float_of_int entries /. 1e6) settles,
      "ms" );
  ]

let band_labels = [ ("0.1pct", 0.001); ("1pct", 0.01); ("10pct", 0.1); ("50pct", 0.5) ]

(* Range probe cost by advisor band: the predicates of each band in the
   first [plans] plans, answered per shard as one batch in the plans'
   order, in ns per predicate.  [None] for a stream without bands. *)
let band_costs rp (sts : S.stream array) ~plans =
  let reps = 5 in
  let cost qs =
    let total = ref 0 in
    for s = 0 to rp.shards - 1 do
      let mine =
        List.filter (fun (name, _, _) -> Cat.shard_of_name ~shards:rp.shards name = s) qs
      in
      let n = List.length mine in
      if n > 0 then begin
        let names = Array.of_list (List.map (fun (x, _, _) -> x) mine) in
        let a = Array.of_list (List.map (fun (_, x, _) -> x) mine) in
        let b = Array.of_list (List.map (fun (_, _, x) -> x) mine) in
        let out = Array.make n 0.0 in
        let call () = Cat.answer_into rp.services.(s) ~n ~names ~a ~b ~out in
        call ();
        let (), t =
          time_ns (fun () ->
              for _ = 1 to reps do
                call ()
              done)
        in
        total := !total + t
      end
    done;
    float_of_int !total /. float_of_int (reps * List.length qs)
  in
  List.map
    (fun (label, band) ->
      let qs = ref [] in
      Array.iter
        (fun (st : S.stream) ->
          if Array.length st.S.bands > 0 then
            for i = 0 to min (Array.length st.S.requests) (plans * st.S.plan) - 1 do
              Array.iteri
                (fun j q -> if st.S.bands.(i).(j) = band then qs := q :: !qs)
                (range_names st.S.requests.(i))
            done)
        sts;
      ("stored.range_ns." ^ label, (if !qs = [] then None else Some (cost (List.rev !qs))), "ns"))
    band_labels

let replay_config (s : S.shape) =
  if s.S.adaptive then { Cat.default_config with Cat.rebuild_after_inserts = S.drift_budget }
  else Cat.default_config

(* Every traced run reports every per-call cost.  A workload that never
   makes a call gets its cost from a fixed slice of the workload that
   does, replayed the same way on a side catalog: plan-batch's plans for
   joins, rects and bands, drift's writer phases for inserts, observes,
   ticks and rebuilds. *)
let reference a w ~dir =
  let p = prepare { a with workload = w; seed = 1L } in
  let shards = p.shape.S.shards in
  analyze ~shards p.bs dir;
  let services, _ = Cat.open_sharded ~config:(replay_config p.shape) ~shards dir in
  if p.shape.S.adaptive then Array.iter Cat.enable_adaptive services;
  let rp = replayer services ~shards in
  let rs = ref [] in
  let replay_if timed req =
    let r = replay rp req in
    if timed then rs := r :: !rs
  in
  match p.drift with
  | None ->
    let warm = 16 and plans = 96 in
    segment p.streams ~from:0 ~count:warm (fun _ _ -> replay_if false);
    segment p.streams ~from:warm ~count:plans (fun _ _ -> replay_if true);
    call_costs !rs ~settles:[] ~entries:0 @ band_costs rp p.streams ~plans:(warm + plans)
  | Some d ->
    let settles = replay_phases rp d ~phases:2 (fun k _ -> replay_if (k = 1)) in
    call_costs !rs ~settles ~entries:(Array.length p.shape.S.entries)

(* Root spans carry the client's clock; a child's start is the replay's
   clock, its parent's id ties it to the exchange. *)
let write_spans path ~roots ~children =
  Out_channel.with_open_bin path (fun oc ->
      let line fields = output_string oc (json_obj fields ^ "\n") in
      let id c i = Printf.sprintf "c%d-%d" c i in
      List.iter
        (fun (c, sp) ->
          for k = 0 to sp.sp_n - 1 do
            line
              [
                ("id", json_str (id c sp.sp_index.(k)));
                ("parent", "null");
                ("name", json_str "client.exchange");
                ("start_ns", string_of_int sp.sp_start.(k));
                ("dur_ns", string_of_int (sp.sp_end.(k) - sp.sp_start.(k)));
              ]
          done)
        roots;
      List.iter
        (fun (c, i, start, (r : replayed)) ->
          let at = ref start in
          Array.iteri
            (fun s d ->
              if d > 0 then begin
                line
                  [
                    ("id", json_str (id c i ^ "/" ^ stages.(s)));
                    ("parent", json_str (id c i));
                    ("name", json_str stages.(s));
                    ("start_ns", string_of_int !at);
                    ("dur_ns", string_of_int d);
                    ("minor_words", json_num r.words.(s));
                  ];
                at := !at + d
              end)
            r.dur)
        children)

let traced a p =
  let run_dir = Filename.concat a.work (Printf.sprintf "run-%d" (Unix.getpid ())) in
  rm_rf run_dir;
  mkdir_p run_dir;
  let cat = Filename.concat run_dir "catalog" and replay_dir = Filename.concat run_dir "replay" in
  let shards = p.shape.S.shards and conns = p.shape.S.connections in
  analyze ~shards p.bs cat;
  copy_tree cat replay_dir;
  let srv =
    spawn ~cli:a.cli ~dir:cat ~sock:(Filename.concat run_dir "s.sock")
      ~log_path:(Filename.concat run_dir "serve.log") p.shape
  in
  let client = await_ready srv in
  ignore (exchange client (tally ()) p.first);
  C.close client;
  let addr = srv.addr in
  let warm, length = sizing a.workload in
  let n = match p.drift with None -> min 4096 (length / 2) | Some _ -> 0 in
  (* Pass 1 untraced (the overhead baseline), pass 2 with root spans. *)
  let base, traced_t, roots =
    match p.drift with
    | None ->
      let warm_t, _, _ = warm_up p ~addr ~expected:(expectations p ~cat p.probes) ~warm in
      let expected = expectations p ~cat p.streams in
      let pass ~spans ~start =
        merge
          (Array.to_list
             (parallel conns (fun c ->
                  let t = tally () in
                  let spans = Option.map (fun s -> s.(c)) spans in
                  ignore
                    (drive ~addr ~stream:p.streams.(c) ~check:(gate expected c t) ~t ?spans ~start
                       ~samples:n ~until:max_int ());
                  t)))
      in
      let base = merge [ warm_t; pass ~spans:None ~start:0 ] in
      let sp = Array.init conns (fun _ -> spans (n * p.streams.(0).S.plan)) in
      let traced_t = pass ~spans:(Some sp) ~start:n in
      (base, traced_t, Array.to_list (Array.mapi (fun c s -> (c, s)) sp))
    | Some d ->
      let reader = p.streams.(0) in
      let tw = tally () and tr = tally () in
      let ph0, rk0 =
        drift_drive ~addr ~d ~reader ~tw ~tr ~from:0 ~min:drift_scored ~until:0 ~m:None
          ~reader_start:1 ()
      in
      let bw = tally () and br = tally () in
      let _, rk1 =
        drift_drive ~addr ~d ~reader ~tw:bw ~tr:br ~from:ph0 ~min:1 ~until:0 ~m:None
          ~reader_start:(1 + rk0) ()
      in
      let sw = spans 4096 and sr = spans 65536 in
      let xw = tally () and xr = tally () in
      ignore
        (drift_drive ~spans:(sw, sr) ~addr ~d ~reader ~tw:xw ~tr:xr ~from:(ph0 + 1) ~min:1
           ~until:0 ~m:None ~reader_start:(1 + rk0 + rk1) ());
      (merge [ tw; tr; bw; br ], merge [ xw; xr ], [ (0, sw); (1, sr) ])
  in
  let report = drain srv in
  (* In-process replay on a copy of the directory the server started from. *)
  let services, _ = Cat.open_sharded ~config:(replay_config p.shape) ~shards replay_dir in
  if p.shape.S.adaptive then Array.iter Cat.enable_adaptive services;
  let rp = replayer services ~shards in
  let cache () =
    Array.fold_left
      (fun (h, m, e) svc ->
        let s = Cat.cache_stats svc in
        (h + s.Catalog.Lru.hits, m + s.Catalog.Lru.misses, e + s.Catalog.Lru.evictions))
      (0, 0, 0) services
  in
  let untimed req = ignore (replay rp req) in
  let children = ref [] in
  let timed c i req = children := (c, i, now_ns (), replay rp req) :: !children in
  let c0 = ref (0, 0, 0) and gc0 = ref (Gc.quick_stat ()) in
  let start_timing () =
    c0 := cache ();
    gc0 := Gc.quick_stat ()
  in
  let settles =
    match p.drift with
    | None ->
      untimed p.first;
      segment p.probes ~from:0 ~count:warm (fun _ _ req -> untimed req);
      segment p.streams ~from:0 ~count:n (fun _ _ req -> untimed req);
      start_timing ();
      segment p.streams ~from:n ~count:n timed;
      []
    | Some d ->
      untimed p.first;
      let phases = drift_scored + 2 in
      let settles =
        replay_phases rp d ~phases (fun k i req ->
            if k < phases - 1 then untimed req
            else begin
              if i = 0 then start_timing ();
              timed 0 i req
            end)
      in
      let sr = List.assoc 1 roots in
      for k = 0 to sr.sp_n - 1 do
        let i = sr.sp_index.(k) in
        timed 1 i p.streams.(0).S.requests.(i)
      done;
      settles
  in
  let h1, m1, e1 = cache () and gc1 = Gc.quick_stat () in
  let h0, m0, e0 = !c0 in
  let children = List.rev !children in
  let rs = Array.of_list (List.map (fun (_, _, _, r) -> r) children) in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 rs in
  let sumf f = Array.fold_left (fun acc r -> acc +. f r) 0.0 rs in
  let ops = float_of_int (max 1 (sum (fun r -> r.ops))) in
  let frames = float_of_int (max 1 (Array.length rs)) in
  (* Root spans against their replayed children: the residual is what the
     round trip spent outside the replayed calls. *)
  let replayed_of = Hashtbl.create 4096 in
  List.iter (fun (c, i, _, r) -> Hashtbl.replace replayed_of (c, i) r) children;
  let rtts = Pct.create () and residuals = Pct.create () in
  List.iter
    (fun (c, sp) ->
      for k = 0 to sp.sp_n - 1 do
        let rtt = sp.sp_end.(k) - sp.sp_start.(k) in
        Pct.push rtts (float_of_int rtt);
        match Hashtbl.find_opt replayed_of (c, sp.sp_index.(k)) with
        | Some r -> Pct.push residuals (float_of_int (rtt - Array.fold_left ( + ) 0 r.dur))
        | None -> ()
      done)
    roots;
  let pct v q =
    match Pct.percentile (Pct.to_array v) q with
    | Ok x -> x
    | Error e -> fail "trace percentile: %s" e
  in
  let overhead =
    let b = pct base.lat 0.5 and t = pct traced_t.lat 0.5 in
    100.0 *. (t -. b) /. b
  in
  let total_answered = float_of_int (max 1 (List.fold_left ( + ) 0 report.r_shard_answered)) in
  let stage_p50 s =
    match Pct.percentile (Array.map (fun r -> float_of_int r.dur.(s)) rs) 0.5 with
    | Ok x -> x
    | Error e -> fail "trace percentile: %s" e
  in
  let rtt50 = pct rtts 0.5 and res50 = pct residuals 0.5 in
  log
    "stage shares of client.rtt_us p50 (%.1f us): decode %.1f%%, answer %.1f%%, tick %.1f%%, \
     encode %.1f%%, residual %.1f%%"
    (rtt50 /. 1e3)
    (100.0 *. stage_p50 0 /. rtt50) (100.0 *. stage_p50 1 /. rtt50) (100.0 *. stage_p50 2 /. rtt50)
    (100.0 *. stage_p50 3 /. rtt50) (100.0 *. res50 /. rtt50);
  let hits = h1 - h0 and misses = m1 - m0 in
  let own =
    call_costs (Array.to_list rs) ~settles ~entries:(Array.length p.shape.S.entries)
    @ band_costs rp p.streams ~plans:(2 * n)
  in
  let refs =
    List.concat_map
      (fun w ->
        if w = a.workload then [] else reference a w ~dir:(Filename.concat run_dir (S.name w)))
      [ S.Plan_batch; S.Drift ]
  in
  let costs =
    List.map
      (fun (name, v, unit) ->
        match v with
        | Some v -> (name, v, unit)
        | None -> (
          match List.find_map (fun (n, v, _) -> if n = name then v else None) refs with
          | Some v -> (name, v, unit)
          | None -> fail "no replay made a call costed by %s" name))
      own
  in
  let build_m = build_metrics p.bs ~side:(Filename.concat run_dir "side") ~cat:replay_dir in
  let kops = ops /. 1000.0 in
  let metrics =
    [
      ("client.rtt_us.p50", rtt50 /. 1e3, "us");
      ("client.rtt_us.p99", pct rtts 0.99 /. 1e3, "us");
      ("engine.residual_us.p50", res50 /. 1e3, "us");
      ("engine.residual_us.p99", pct residuals 0.99 /. 1e3, "us");
      ( "engine.queries_per_batch",
        float_of_int report.r_merged /. float_of_int (max 1 report.r_batches),
        "queries" );
      ( "engine.shard_share_max",
        float_of_int (List.fold_left max 0 report.r_shard_answered) /. total_answered,
        "ratio" );
      ("engine.refused", float_of_int report.r_refused, "count");
      ("wire.decode_ns_per_query", float_of_int (sum (fun r -> r.dur.(0))) /. ops, "ns");
      ("wire.encode_ns_per_reply", float_of_int (sum (fun r -> r.dur.(3))) /. frames, "ns");
      ("wire.request_bytes_per_query", float_of_int (sum (fun r -> r.req_bytes)) /. ops, "bytes");
      ("wire.reply_bytes_per_query", float_of_int (sum (fun r -> r.reply_bytes)) /. ops, "bytes");
      ("wire.decode_words_per_frame", sumf (fun r -> r.words.(0)) /. frames, "words");
      ("catalog.answer_ns_per_query", float_of_int (sum (fun r -> r.dur.(1))) /. ops, "ns");
      ("catalog.runs_per_frame", float_of_int (sum (fun r -> r.runs)) /. frames, "runs");
      ( "catalog.miss_time_share",
        float_of_int (sum (fun r -> if r.missed then r.dur.(1) else 0))
        /. float_of_int (max 1 (sum (fun r -> r.dur.(1)))),
        "ratio" );
      ("catalog.swaps", float_of_int report.r_swaps, "count");
      ("lru.hit_ratio", float_of_int hits /. float_of_int (max 1 (hits + misses)), "ratio");
      ("lru.evictions_per_kop", float_of_int (e1 - e0) /. kops, "count");
      ( "stored.cells_per_query",
        float_of_int (sum (fun r -> r.cells)) /. float_of_int (max 1 (sum (fun r -> r.ranges))),
        "cells" );
      ("gc.minor_words_per_op.decode", sumf (fun r -> r.words.(0)) /. ops, "words");
      ("gc.minor_words_per_op.answer", sumf (fun r -> r.words.(1)) /. ops, "words");
      ("gc.minor_words_per_op.encode", sumf (fun r -> r.words.(3)) /. ops, "words");
      ( "gc.minor_collections_per_kop",
        float_of_int (gc1.Gc.minor_collections - !gc0.Gc.minor_collections) /. kops,
        "count" );
      ( "gc.major_collections_per_kop",
        float_of_int (gc1.Gc.major_collections - !gc0.Gc.major_collections) /. kops,
        "count" );
      ("trace.overhead_pct", overhead, "%");
      ("trace.spans", float_of_int (Pct.length rtts + Array.length rs), "count");
    ]
    @ costs @ build_m
  in
  let spans_path =
    Filename.concat a.work (Printf.sprintf "spans-%s-%Ld.jsonl" (S.name a.workload) a.seed)
  in
  write_spans spans_path ~roots ~children;
  rm_rf run_dir;
  let correct = base.wrong = 0 && traced_t.wrong = 0 in
  record ~path:(Filename.concat a.work "results.jsonl")
    (host_fields a p
    @ [
        ("trace", "1");
        ("correct", string_of_bool correct);
        ("spans_file", json_str spans_path);
        ("root_spans", string_of_int (Pct.length rtts));
        ("replayed_exchanges", string_of_int (Array.length rs));
        ("metrics", json_metrics metrics);
      ]);
  let attempted = base.attempted + traced_t.attempted and failed = failed base + failed traced_t in
  print_result ~correct ~attempted ~failed metrics;
  if not correct then exit 1

(* ---------------- entry point ---------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let cli = ref "" and work = ref ".perfbench_work" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME point | plan-batch | cold-catalog | drift");
      ("--seed", Arg.Set_int seed, "N request-stream seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the per-layer trace (1)");
      ("--cli", Arg.Set_string cli, "PATH the selest_cli executable to serve with");
      ("--work", Arg.Set_string work, "DIR scratch directory for catalogs, logs and spans");
    ]
  in
  Arg.parse specs (fun x -> raise (Arg.Bad ("unexpected argument " ^ x))) "driver.exe [options]";
  let usage msg =
    prerr_endline ("driver: " ^ msg);
    exit 2
  in
  let workload = match S.of_name !workload with Some w -> w | None -> usage "unknown --workload" in
  if !seconds < 1 || !seconds > max_seconds then usage "--seconds must be in 1..60";
  if !trace <> 0 && !trace <> 1 then usage "--trace must be 0 or 1";
  if !cli = "" || not (Sys.file_exists !cli) then usage "--cli must name the selest_cli executable";
  let a =
    {
      workload;
      seed = Int64.of_int !seed;
      seconds = !seconds;
      traced = !trace = 1;
      cli = !cli;
      work = !work;
    }
  in
  mkdir_p a.work;
  W.ignore_sigpipe ();
  (* A large minor heap keeps the load generator's own collections rare. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20 };
  let code =
    match
      let p = prepare a in
      if a.traced then traced a p else untraced a p
    with
    | () -> 0
    | exception Bench_failure msg ->
      log "perfbench: %s" msg;
      1
    | exception e ->
      log "perfbench: %s" (Printexc.to_string e);
      1
  in
  kill_all ();
  exit code
