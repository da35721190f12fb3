(* Tests for the serving benchmark's generators: each workload's requests
   have the shape perfbench/README.md states, and the percentile helper
   refuses percentiles without ten samples beyond them. *)

open Perfbench
module S = Shape
module W = Server.Wire

let seed = 11L

(* The headline files, generated once for every test that needs them. *)
let env = lazy (S.env S.headline)

(* --- plan-batch: every predicate lands in its advisor band --- *)

let test_plan_bands () =
  let shape = S.shape S.Plan_batch in
  let env = Lazy.force env in
  let file_of = S.file_of shape in
  let plans = S.plans env shape ~seed ~count:64 in
  let tol = Advisor.Workloads.default_tolerance in
  let bands_seen = Hashtbl.create 8 in
  Array.iter
    (fun (p : S.plan) ->
      Alcotest.(check int) "predicates per plan" S.plan_width (Array.length p.S.batch);
      Array.iteri
        (fun i (entry, a, b) ->
          let band = p.S.band_of.(i) in
          Hashtbl.replace bands_seen band ();
          let sel = Data.Dataset.exact_selectivity (S.dataset env (file_of entry)) ~lo:a ~hi:b in
          if Float.abs (sel -. band) > tol *. band then
            Alcotest.failf "%s [%g, %g]: selectivity %g outside band %g +/- %g%%" entry a b sel band
              (100. *. tol);
          (* round-robin: adjacent predicates never share an entry *)
          if i > 0 then begin
            let prev, _, _ = p.S.batch.(i - 1) in
            if prev = entry then Alcotest.failf "predicates %d and %d share %s" (i - 1) i entry
          end)
        p.S.batch)
    plans;
  Alcotest.(check bool) "bands from 0.1% to 50% all drawn" true
    (List.for_all (Hashtbl.mem bands_seen) S.bands);
  let preds = Array.map (fun (p : S.plan) -> p.S.pred) (Array.sub plans 0 3) in
  Alcotest.(check bool) "join predicates cycle eq, lt, le" true (preds = S.preds);
  (* the streams carry each predicate's band beside its request *)
  Array.iter
    (fun (st : S.stream) ->
      Array.iteri
        (fun i req ->
          let n = match req with W.Batch_estimate t -> Array.length t | _ -> 0 in
          Alcotest.(check int) "one band per predicate" n (Array.length st.S.bands.(i)))
        st.S.requests)
    (S.plan_streams env shape ~seed ~length:8)

(* --- cold-catalog: a working set of 3x capacity, Zipf hit ratio --- *)

let test_cold_working_set () =
  let shape = S.shape S.Cold_catalog in
  let entries = Array.length shape.S.entries in
  Alcotest.(check bool) "entries >= 3x cache capacity" true (entries >= 3 * S.capacity);
  let stream = (S.cold_streams (Lazy.force env) shape ~seed ~length:65536).(0) in
  let distinct = Hashtbl.create 128 in
  let lru = Catalog.Lru.create ~capacity:S.capacity () in
  Array.iter
    (function
      | W.Estimate { entry; _ } ->
        Hashtbl.replace distinct entry ();
        if Catalog.Lru.find lru entry = None then Catalog.Lru.add lru entry ()
      | r -> Alcotest.failf "unexpected request %s" (W.request_to_string r))
    stream.S.requests;
  Alcotest.(check int) "every entry is requested" entries (Hashtbl.length distinct);
  let st = Catalog.Lru.stats lru in
  let hits = st.Catalog.Lru.hits and misses = st.Catalog.Lru.misses in
  let ratio = float_of_int hits /. float_of_int (hits + misses) in
  if ratio < 0.6 || ratio > 0.8 then Alcotest.failf "LRU hit ratio %.3f outside [0.6, 0.8]" ratio

(* --- drift: the writer stream is a function of the seed --- *)

let writer d =
  List.concat_map
    (fun k ->
      let observes, probes = S.drift_feedback d k in
      Array.to_list (S.drift_inserts d k) @ Array.to_list observes @ Array.to_list probes)
    (List.init (2 * S.drift_windows) Fun.id)

let test_drift_repeats () =
  let shape = S.shape S.Drift in
  let a = writer (S.drift_inputs shape ~seed) and b = writer (S.drift_inputs shape ~seed) in
  Alcotest.(check int) "same length" (List.length a) (List.length b);
  Alcotest.(check bool) "identical for one seed" true (List.for_all2 W.equal_request a b);
  let c = writer (S.drift_inputs shape ~seed:(Int64.succ seed)) in
  Alcotest.(check bool) "another seed differs" false (List.for_all2 W.equal_request a c);
  let inserts = S.drift_inserts (S.drift_inputs shape ~seed) 0 in
  let frames =
    Array.fold_left (fun n r -> match r with W.Insert _ -> n + 1 | _ -> n) 0 inserts
  in
  Alcotest.(check int) "one budget of inserts per entry and phase"
    (Array.length shape.S.entries * S.drift_budget / S.drift_frame) frames

(* --- point: narrow predicates over the 16 resident entries --- *)

let test_point_narrow () =
  let shape = S.shape S.Point in
  Alcotest.(check int) "16 entries" 16 (Array.length shape.S.entries);
  Alcotest.(check bool) "all resident" true
    (Array.for_all (fun n -> n <= S.capacity) (S.per_shard shape));
  let env = Lazy.force env in
  let file_of = S.file_of shape in
  Array.iter
    (fun (st : S.stream) ->
      Array.iter
        (function
          | W.Estimate { entry; a; b; _ } ->
            (* the paper's 1% queries: 1% of the file's domain, whole atoms *)
            let dom = Data.Dataset.domain_size (S.dataset env (file_of entry)) in
            let width = Float.round (0.01 *. float_of_int dom) in
            if b -. a <> width then
              Alcotest.failf "%s: query width %g, not 1%% of %d" entry (b -. a) dom
          | r -> Alcotest.failf "unexpected request %s" (W.request_to_string r))
        st.S.requests)
    (S.point_streams env shape ~seed ~length:2048)

(* --- the percentile helper --- *)

let test_percentile_support () =
  let ramp n = Array.init n float_of_int in
  let ok = function Ok _ -> true | Error _ -> false in
  Alcotest.(check bool) "p99 of 999 refused" false (ok (Pct.percentile (ramp 999) 0.99));
  Alcotest.(check bool) "p99 of 1000 answered" true (ok (Pct.percentile (ramp 1000) 0.99));
  Alcotest.(check bool) "p50 of 19 refused" false (ok (Pct.percentile (ramp 19) 0.5));
  Alcotest.(check bool) "p50 of 20 answered" true (ok (Pct.percentile (ramp 20) 0.5));
  Alcotest.(check (result (float 1e-9) string))
    "type-7 value" (Ok 989.01) (Pct.percentile (ramp 1000) 0.99)

let () =
  Alcotest.run "perfbench"
    [
      ( "generators",
        [
          Alcotest.test_case "plan-batch predicates within their bands" `Quick test_plan_bands;
          Alcotest.test_case "cold-catalog working set and hit ratio" `Quick test_cold_working_set;
          Alcotest.test_case "drift writer stream repeats per seed" `Quick test_drift_repeats;
          Alcotest.test_case "point predicates are narrow" `Quick test_point_narrow;
        ] );
      ( "percentiles",
        [ Alcotest.test_case "under-supported percentiles refused" `Quick test_percentile_support ] );
    ]
