(* The four serving workloads: their shapes and seeded request streams.

   The test environment is fixed, as in the paper: the data files and the
   ANALYZE samples are generated from the same seeds in every run, so
   summaries (and hence accuracy) depend only on the workload.  The run's
   seed drives everything a client sends.  Every generator here is pure:
   the same seed yields the same requests. *)

module W = Server.Wire
module Rng = Prng.Xoshiro256pp

type workload = Point | Plan_batch | Cold_catalog | Drift

let workloads = [ Point; Plan_batch; Cold_catalog; Drift ]

let name = function
  | Point -> "point"
  | Plan_batch -> "plan-batch"
  | Cold_catalog -> "cold-catalog"
  | Drift -> "drift"

let of_name s = List.find_opt (fun w -> name w = s) workloads

let data_seed = 42L
let sample_seed = 7L
let sample_size = Workload.Experiment.paper_sample_size

(* Per-shard LRU capacity of a served catalog ([serve] has no knob). *)
let capacity = Catalog.Service.default_config.Catalog.Service.capacity

let headline = [ "u(20)"; "n(20)"; "e(20)"; "arap1"; "arap2"; "rr1(22)"; "rr2(22)"; "iw" ]
let drift_files = [ "u(20)"; "n(20)"; "e(20)" ]

type entry =
  | Range of { entry : string; file : string; spec : string }
  | Rect of { entry : string; spec : string }  (** the street grid *)
  | Join of { entry : string; spec : string }  (** n(20) JOIN u(20) *)

let entry_name = function Range { entry; _ } | Rect { entry; _ } | Join { entry; _ } -> entry

let rect_entry = Rect { entry = "street/hist2d"; spec = "hist2d:64" }
let join_entry = Join { entry = "n(20)_join_u(20)/edh"; spec = "edh:64" }
let join_r = "n(20)"
let join_s = "u(20)"

let ranges files specs =
  List.concat_map
    (fun file -> List.map (fun spec -> Range { entry = file ^ "/" ^ spec; file; spec }) specs)
    files

let advisor_specs = List.map fst Advisor.Sweep.default_suite

type shape = {
  workload : workload;
  shards : int;
  connections : int;
  adaptive : bool;
  entries : entry array;
}

let shape workload =
  let mk shards connections adaptive entries =
    { workload; shards; connections; adaptive; entries = Array.of_list entries }
  in
  match workload with
  | Point -> mk 2 2 false (ranges headline [ "ewh"; "kernel" ])
  | Plan_batch -> mk 2 2 false (ranges headline [ "ewh"; "kernel" ] @ [ join_entry; rect_entry ])
  | Cold_catalog -> mk 1 1 false (ranges headline advisor_specs)
  | Drift -> mk 1 2 true (ranges drift_files [ "kernel" ])

(* The data file behind each range entry. *)
let file_of s =
  let t = Hashtbl.create 16 in
  Array.iter (function Range { entry; file; _ } -> Hashtbl.replace t entry file | _ -> ()) s.entries;
  Hashtbl.find t

(* Entries each shard owns: the cache-pressure figure of a shape. *)
let per_shard s =
  let counts = Array.make s.shards 0 in
  Array.iter
    (fun e ->
      let i = Catalog.Service.shard_of_name ~shards:s.shards (entry_name e) in
      counts.(i) <- counts.(i) + 1)
    s.entries;
  counts

let files s =
  List.sort_uniq compare
    (Array.to_list
       (Array.map
          (function
            | Range { file; _ } -> [ file ] | Join _ -> [ join_r; join_s ] | Rect _ -> [])
          s.entries)
    |> List.concat)

(* ---------------- the test environment ---------------- *)

type env = {
  datasets : (string * Data.Dataset.t) list;
  street : Multidim.Dataset2d.t Lazy.t;
}

let env files =
  {
    datasets = List.map (fun f -> (f, Data.Catalog.find ~seed:data_seed f)) files;
    street =
      lazy
        (Multidim.Generate2d.street_grid ~name:"street" ~bits:16 ~count:50_000
           ~seed:data_seed);
  }

let dataset env f =
  match List.assoc_opt f env.datasets with
  | Some ds -> ds
  | None -> invalid_arg ("Shape.dataset: file not generated: " ^ f)

let street_domain = (-0.5, 65535.5)

(* ---------------- request streams ---------------- *)

(* One connection's closed-loop stream: [plan] consecutive requests form
   one latency sample (a plan on plan-batch, one exchange elsewhere).
   On plan-batch, [bands.(i)] holds the advisor band each predicate of
   request [i] was drawn from; elsewhere [bands] is empty. *)
type stream = { requests : W.request array; plan : int; bands : float array array }

let ops_of = function
  | W.Batch_estimate t -> Array.length t
  | W.Estimate _ | W.Estimate_rect _ | W.Estimate_join _ | W.Insert _ | W.Observe _ -> 1
  | W.Ping | W.Ls | W.Invalidate _ -> 0

let sub seed i = Rng.substream (Rng.create seed) i

let seed_of rng = Rng.next rng

(* The paper's narrow queries: 1% of the domain, centered on records. *)
let narrow_pool ds ~rng ~count =
  Workload.Generate.size_separated ds ~seed:(seed_of rng) ~fraction:0.01 ~count

let estimate entry (q : Workload.Query.t) =
  W.Estimate { entry; a = q.Workload.Query.lo; b = q.Workload.Query.hi; spec = "" }

let range_targets s =
  Array.of_list
    (List.filter_map
       (function Range { entry; file; _ } -> Some (entry, file) | _ -> None)
       (Array.to_list s.entries))

let pools env ~rng ~count targets =
  let files = List.sort_uniq compare (Array.to_list (Array.map snd targets)) in
  List.map (fun f -> (f, narrow_pool (dataset env f) ~rng ~count)) files

(* point: uniform over the 16 entries, one narrow estimate per exchange. *)
let point_streams env s ~seed ~length =
  let targets = range_targets s in
  let pool = pools env ~rng:(sub seed 0) ~count:4096 targets in
  Array.init s.connections (fun c ->
      let rng = sub seed (c + 1) in
      let requests =
        Array.init length (fun _ ->
            let entry, file = targets.(Rng.int_below rng (Array.length targets)) in
            let qs = List.assoc file pool in
            estimate entry qs.(Rng.int_below rng (Array.length qs)))
      in
      { requests; plan = 1; bands = [||] })

(* Zipf(1) over [n] ranks: the cumulative distribution, sampled by
   binary search. *)
let zipf_cdf n =
  let w = Array.init n (fun r -> 1.0 /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw cdf rng =
  let u = Rng.float rng in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* cold-catalog: Zipf(1) popularity over the 96 entries.  The ranking is
   part of the fixed environment (which entries are hot); the seed draws
   the requests. *)
let cold_streams env s ~seed ~length =
  let targets = range_targets s in
  let pool = pools env ~rng:(sub seed 0) ~count:1024 targets in
  let rank_rng = sub data_seed 1 in
  let ranked = Array.copy targets in
  Rng.shuffle_prefix rank_rng ranked (Array.length ranked);
  let cdf = zipf_cdf (Array.length ranked) in
  Array.init s.connections (fun c ->
      let rng = sub seed (c + 2) in
      let requests =
        Array.init length (fun _ ->
            let entry, file = ranked.(zipf_draw cdf rng) in
            let qs = List.assoc file pool in
            estimate entry qs.(Rng.int_below rng (Array.length qs)))
      in
      { requests; plan = 1; bands = [||] })

(* ---------------- plan-batch ---------------- *)

let plan_width = 64
let bands = Advisor.Workloads.default_targets

type plan = {
  batch : (string * float * float) array;
  band_of : float array;  (** the target band each predicate was drawn from *)
  pred : Selest.Stored.join_pred;
  rect : Multidim.Workload2d.rect;
}

let preds = [| Selest.Stored.Join_eq; Selest.Stored.Join_lt; Selest.Stored.Join_le |]

(* Per-file band pools from the advisor's targeted-selectivity generator;
   a band the file cannot hit within tolerance is left out for that file. *)
let band_pools env targets ~rng =
  let files = List.sort_uniq compare (Array.to_list (Array.map snd targets)) in
  List.map
    (fun f ->
      let ds = dataset env f in
      let cells =
        List.filter_map
          (fun target ->
            match
              Advisor.Workloads.generate ds ~seed:(seed_of rng)
                ~placement:Advisor.Workloads.Data_skew ~target ~count:128 ()
            with
            | Ok wl -> Some (target, wl.Advisor.Workloads.queries)
            | Error _ -> None)
          bands
      in
      (f, Array.of_list cells))
    files

let plans env s ~seed ~count =
  let targets = range_targets s in
  let pools = band_pools env targets ~rng:(sub seed 0) in
  let rects =
    Multidim.Workload2d.size_separated (Lazy.force env.street) ~seed:(seed_of (sub seed 1))
      ~fraction:0.1 ~count:512
  in
  let rng = sub seed 2 in
  let n = Array.length targets in
  Array.init count (fun p ->
      let offset = Rng.int_below rng n in
      let band_of = Array.make plan_width 0.0 in
      let batch =
        Array.init plan_width (fun i ->
            (* round-robin over entries: adjacent predicates never share one *)
            let entry, file = targets.((offset + i) mod n) in
            let cells = List.assoc file pools in
            let target, qs = cells.(Rng.int_below rng (Array.length cells)) in
            let q = qs.(Rng.int_below rng (Array.length qs)) in
            band_of.(i) <- target;
            (entry, q.Workload.Query.lo, q.Workload.Query.hi))
      in
      {
        batch;
        band_of;
        pred = preds.(p mod Array.length preds);
        rect = rects.(Rng.int_below rng (Array.length rects));
      })

let plan_requests plan =
  let r = plan.rect in
  [|
    W.Batch_estimate plan.batch;
    W.Estimate_join { entry = entry_name join_entry; pred = plan.pred };
    W.Estimate_rect
      {
        entry = entry_name rect_entry;
        x_lo = r.Multidim.Workload2d.x_lo;
        x_hi = r.Multidim.Workload2d.x_hi;
        y_lo = r.Multidim.Workload2d.y_lo;
        y_hi = r.Multidim.Workload2d.y_hi;
      };
  |]

let plan_streams env s ~seed ~length =
  Array.init s.connections (fun c ->
      let ps = plans env s ~seed:(Int64.add seed (Int64.of_int (1000 * (c + 1)))) ~count:length in
      {
        requests = Array.concat (Array.to_list (Array.map plan_requests ps));
        plan = 3;
        bands = Array.concat (Array.to_list (Array.map (fun p -> [| p.band_of; [||]; [||] |]) ps));
      })

(* ---------------- drift ---------------- *)

(* Each phase inserts [drift_budget] values into every entry, in frames of
   [drift_frame]; the server runs with [--rebuild-after drift_budget], so an
   entry trips stale exactly at its phase's last frame.  The live relation
   is the current phase's window of values: uniform integers over 1/8 of
   the domain, its center stepping across [drift_windows] positions. *)
let drift_budget = 1024
let drift_frame = 64
let drift_windows = 8
let drift_observes = 256  (* = Catalog's refresh_after_observes: one refresh per phase *)
let drift_probes = 64
let drift_bits = 20

type drift = {
  d_entries : string array;
  values : float array array array;  (** window -> entry -> inserted values *)
  observes : (float * float * float) array array array;
      (** window -> entry -> [(a, b, actual)] *)
  probes : (float * float * float) array array array;
      (** window -> entry -> [(a, b, truth)] probed at the checkpoint *)
}

let drift_inputs s ~seed =
  let d_entries = Array.map fst (range_targets s) in
  let dom = 1 lsl drift_bits in
  let width = dom / 8 in
  let rng = sub seed 0 in
  let windows =
    Array.init drift_windows (fun w ->
        let lo = width / 2 + (w * (dom - (2 * width)) / (drift_windows - 1)) in
        Array.map
          (fun entry ->
            let ints = Array.init drift_budget (fun _ -> lo + Rng.int_below rng width) in
            let rel = Data.Dataset.create ~name:entry ~bits:drift_bits ints in
            let queries count =
              Array.map
                (fun (q : Workload.Query.t) ->
                  let a = q.Workload.Query.lo and b = q.Workload.Query.hi in
                  (a, b, Data.Dataset.exact_selectivity rel ~lo:a ~hi:b))
                (Workload.Generate.size_separated rel ~seed:(seed_of rng) ~fraction:0.02 ~count)
            in
            (Array.map float_of_int ints, queries drift_observes, queries drift_probes))
          d_entries)
  in
  let pick f = Array.map (Array.map f) windows in
  {
    d_entries;
    values = pick (fun (v, _, _) -> v);
    observes = pick (fun (_, o, _) -> o);
    probes = pick (fun (_, _, p) -> p);
  }

(* The writer's requests for phase [k], in order: every insert frame of
   every entry, then (after the checkpoint) its observes and probes. *)
let per_entry d k f =
  let w = k mod drift_windows in
  Array.concat (Array.to_list (Array.mapi (fun e entry -> f e entry w) d.d_entries))

let drift_inserts d k =
  per_entry d k (fun e entry w ->
      Array.init (drift_budget / drift_frame) (fun j ->
          W.Insert { entry; values = Array.sub d.values.(w).(e) (j * drift_frame) drift_frame }))

let drift_feedback d k =
  ( per_entry d k (fun e entry w ->
        Array.map (fun (a, b, actual) -> W.Observe { entry; a; b; actual }) d.observes.(w).(e)),
    per_entry d k (fun e entry w ->
        Array.map (fun (a, b, _) -> W.Estimate { entry; a; b; spec = "" }) d.probes.(w).(e)) )

(* The reader plans for [drift_think_s] after each answer before it asks
   again, as an optimizer session does between estimates.  Without the
   pause a closed-loop reader answers ~20k reads/s between rebuilds and
   at most one per rebuild stall, so stalled reads would be too rare for
   the p99 to show them. *)
let drift_think_s = 0.00025

(* The reader: narrow estimates on the drift entries' base files. *)
let drift_reader env s ~seed ~length =
  let targets = range_targets s in
  let pool = pools env ~rng:(sub seed 1) ~count:1024 targets in
  let rng = sub seed 2 in
  {
    requests =
      Array.init length (fun _ ->
          let entry, file = targets.(Rng.int_below rng (Array.length targets)) in
          let qs = List.assoc file pool in
          estimate entry qs.(Rng.int_below rng (Array.length qs)));
    plan = 1;
    bands = [||];
  }
