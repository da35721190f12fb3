(* Core.Stored serialization: property-based round-trip guarantees and
   totality on malformed input.

   The catalog persists summaries through to_string/of_string, so the
   round trip must reproduce selectivities bit-identically (weights print
   with 17 significant digits — exact for doubles) and of_string must
   return Error, never raise, on any corrupt file content. *)

module Stored = Selest.Stored

let check = Alcotest.check
let checkf = Alcotest.check (Alcotest.float 0.0)

(* Build a Stored.t with chosen weights by crafting its textual form —
   the type is abstract, and of_string is the only weight-level door. *)
let stored_text ~lo ~hi weights =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "selest-stored v1\n";
  Buffer.add_string buf (Printf.sprintf "domain %.17g %.17g\n" lo hi);
  Buffer.add_string buf (Printf.sprintf "cells %d\n" (List.length weights));
  List.iter (fun w -> Buffer.add_string buf (Printf.sprintf "%.17g\n" w)) weights;
  Buffer.contents buf

let stored_of_weights ~lo ~hi weights =
  match Stored.of_string (stored_text ~lo ~hi weights) with
  | Ok t -> t
  | Error msg -> Alcotest.failf "stored_of_weights rejected valid input: %s" msg

(* Arbitrary domain, weights, and query endpoints (as domain fractions,
   possibly outside [0,1] to exercise clamping). *)
let gen_case =
  QCheck.Gen.(
    let* lo = float_bound_inclusive 1000.0 in
    let* width = map (fun w -> 0.5 +. (w *. 1000.0)) (float_bound_inclusive 1.0) in
    let* weights =
      list_size (int_range 1 64) (map Float.abs (float_bound_inclusive 0.25))
    in
    let* queries =
      list_size (int_range 1 20)
        (pair (float_range (-0.3) 1.3) (float_range (-0.3) 1.3))
    in
    return (lo -. 500.0, lo -. 500.0 +. width, weights, queries))

let arb_case = QCheck.make gen_case

(* Bit-identical selectivities after one (and two) serialization round
   trips, on queries anywhere relative to the domain. *)
let prop_round_trip =
  QCheck.Test.make ~count:300 ~name:"of_string (to_string t) bit-identical" arb_case
    (fun (lo, hi, weights, queries) ->
      let t = stored_of_weights ~lo ~hi weights in
      match Stored.of_string (Stored.to_string t) with
      | Error msg -> QCheck.Test.fail_reportf "round trip rejected: %s" msg
      | Ok t' ->
        Stored.cells t' = Stored.cells t
        && Stored.domain t' = Stored.domain t
        && Stored.to_string t' = Stored.to_string t
        && List.for_all
             (fun (fa, fb) ->
               let a = lo +. (fa *. (hi -. lo)) and b = lo +. (fb *. (hi -. lo)) in
               Float.equal (Stored.selectivity t ~a ~b) (Stored.selectivity t' ~a ~b))
             queries)

(* The same guarantee for summaries reduced from a real fitted estimator
   (the ANALYZE path the catalog actually exercises). *)
let prop_round_trip_of_sample =
  let arb =
    QCheck.make
      QCheck.Gen.(
        let* n = int_range 2 200 in
        let* sample = array_size (return n) (float_bound_inclusive 1024.0) in
        let* cells = int_range 1 64 in
        return (sample, cells))
  in
  QCheck.Test.make ~count:60 ~name:"of_sample summaries round-trip" arb
    (fun (sample, cells) ->
      let domain = (-0.5, 1024.5) in
      let t = Stored.of_sample ~cells ~spec:Selest.Estimator.Sampling ~domain sample in
      match Stored.of_string (Stored.to_string t) with
      | Error msg -> QCheck.Test.fail_reportf "round trip rejected: %s" msg
      | Ok t' ->
        List.for_all
          (fun (a, b) -> Float.equal (Stored.selectivity t ~a ~b) (Stored.selectivity t' ~a ~b))
          [ (0.0, 1024.0); (-0.5, 1024.5); (100.0, 101.0); (512.0, 300.0); (1000.0, 2000.0) ])

(* Rect summaries: round trips must reproduce rectangle selectivities
   bit-identically, including degenerate and inverted query bounds, and
   Multidim.Hist2d must agree exactly (its type IS Stored.rect). *)
let prop_rect_round_trip =
  let arb =
    QCheck.make
      QCheck.Gen.(
        let* n = int_range 1 200 in
        let* points =
          array_size (return n)
            (pair (float_bound_inclusive 96.0) (float_bound_inclusive 60.0))
        in
        let* bins_x = int_range 1 16 in
        let* bins_y = int_range 1 16 in
        let* queries =
          list_size (int_range 1 12)
            (quad
               (float_range (-10.0) 110.0)
               (float_range (-10.0) 110.0)
               (float_range (-10.0) 70.0)
               (float_range (-10.0) 70.0))
        in
        return (points, bins_x, bins_y, queries))
  in
  QCheck.Test.make ~count:120 ~name:"rect_of_string (rect_to_string r) bit-identical" arb
    (fun (points, bins_x, bins_y, queries) ->
      let domain_x = (-0.5, 96.5) and domain_y = (-0.5, 60.5) in
      let r = Stored.rect_of_points ~domain_x ~domain_y ~bins_x ~bins_y points in
      match Stored.rect_of_string (Stored.rect_to_string r) with
      | Error msg -> QCheck.Test.fail_reportf "rect round trip rejected: %s" msg
      | Ok r' ->
        Stored.rect_bins r' = Stored.rect_bins r
        && Stored.rect_domains r' = Stored.rect_domains r
        && Stored.rect_to_string r' = Stored.rect_to_string r
        && List.for_all
             (fun (x_lo, x_hi, y_lo, y_hi) ->
               let s = Stored.rect_selectivity r ~x_lo ~x_hi ~y_lo ~y_hi in
               Float.equal s (Stored.rect_selectivity r' ~x_lo ~x_hi ~y_lo ~y_hi)
               && Float.equal s (Multidim.Hist2d.selectivity r' ~x_lo ~x_hi ~y_lo ~y_hi))
             queries)

(* Join summaries: round trips must reproduce the estimated size of all
   three predicates bit-identically, and Join.Ineqjoin.estimate must
   agree exactly (it is an alias of Stored.join_estimate). *)
let prop_join_round_trip =
  let arb =
    QCheck.make
      QCheck.Gen.(
        let* nr = int_range 1 300 in
        let* ns = int_range 1 300 in
        let* sample_r = array_size (return nr) (float_bound_inclusive 512.0) in
        let* sample_s = array_size (return ns) (float_bound_inclusive 512.0) in
        let* buckets = int_range 1 32 in
        return (sample_r, sample_s, buckets))
  in
  QCheck.Test.make ~count:120 ~name:"join_of_string (join_to_string j) bit-identical" arb
    (fun (sample_r, sample_s, buckets) ->
      let domain = (-0.5, 512.5) in
      let j =
        Stored.join_of_samples ~domain ~buckets ~n_r:10_000 ~n_s:8_000 sample_r sample_s
      in
      match Stored.join_of_string (Stored.join_to_string j) with
      | Error msg -> QCheck.Test.fail_reportf "join round trip rejected: %s" msg
      | Ok j' ->
        Stored.join_domain j' = Stored.join_domain j
        && Stored.join_sizes j' = Stored.join_sizes j
        && Stored.join_buckets j' = Stored.join_buckets j
        && Stored.join_samples j' = Stored.join_samples j
        && Stored.join_to_string j' = Stored.join_to_string j
        && List.for_all
             (fun pred ->
               let e = Stored.join_estimate j ~pred in
               Float.equal e (Stored.join_estimate j' ~pred)
               && Float.equal e (Join.Ineqjoin.estimate j' ~pred))
             [ Stored.Join_eq; Stored.Join_lt; Stored.Join_le ])

(* ---------------- reference models ----------------

   The probes in Stored answer a range from a prefix-mass array and a
   join from one merge sweep over the two bucket-bound arrays.  The
   references below are the direct formulas they replace: the range
   loop visits every covered cell, and the join loops visit every
   bucket pair. *)

(* The range loop, and how many cells it visits for [Q(a, b)]. *)
let reference_selectivity ~lo ~hi weights ~a ~b =
  if a > b then (0.0, 0)
  else begin
    let k = Array.length weights in
    let w = (hi -. lo) /. float_of_int k in
    let first = Int.max 0 (int_of_float (Float.floor ((a -. lo) /. w))) in
    let last = Int.min (k - 1) (int_of_float (Float.floor ((b -. lo) /. w))) in
    let acc = ref 0.0 in
    for i = first to last do
      let c_lo = lo +. (float_of_int i *. w) in
      let c_hi = c_lo +. w in
      let overlap = Float.min b c_hi -. Float.max a c_lo in
      if overlap > 0.0 then acc := !acc +. (weights.(i) *. overlap /. w)
    done;
    (Float.max 0.0 (Float.min 1.0 !acc), Int.max 0 (last - first + 1))
  end

(* The prefix probe must match the cell loop bit for bit on queries that
   cover at most two cells (the partial cells use the same arithmetic)
   and within 1e-12 otherwise (whole cells are summed by a prefix
   difference).  Every generated query is also tried inverted, as a
   point [a = a], and snapped to cell edges. *)
let prop_range_reference =
  QCheck.Test.make ~count:500 ~name:"prefix-mass probe matches the per-cell loop" arb_case
    (fun (lo, hi, weights, queries) ->
      let t = stored_of_weights ~lo ~hi weights in
      let w = Array.of_list weights in
      let k = Array.length w in
      let cw = (hi -. lo) /. float_of_int k in
      let at f = lo +. (f *. (hi -. lo)) in
      let edge f = lo +. (Float.round (f *. float_of_int k) *. cw) in
      let qs =
        List.concat_map
          (fun (fa, fb) ->
            let a = at fa and b = at fb in
            [ (a, b); (b, a); (a, a); (edge fa, edge fb); (edge fa, b) ])
          queries
      in
      let n = List.length qs in
      let out = Array.make n nan in
      Stored.selectivity_into t ~pos:0 ~len:n
        ~a:(Array.of_list (List.map fst qs))
        ~b:(Array.of_list (List.map snd qs))
        ~out;
      List.iteri
        (fun i (a, b) ->
          let got = Stored.selectivity t ~a ~b in
          let want, visited = reference_selectivity ~lo ~hi w ~a ~b in
          let close =
            if visited <= 2 then Float.equal got want
            else Float.abs (got -. want) <= 1e-12
          in
          if not (close && Float.equal got out.(i)) then
            QCheck.Test.fail_reportf
              "Q(%h, %h) on %d cells: probe %h, batch %h, reference %h" a b k got out.(i)
              want)
        qs;
      true)

(* The pre-sweep P(x < y) for uniform buckets, with its clamp closure. *)
let reference_prob_lt ~a1 ~b1 ~a2 ~b2 =
  if b1 <= a2 then 1.0
  else if b2 <= a1 then 0.0
  else begin
    let clamp v = Float.max a2 (Float.min b2 v) in
    let c1 = clamp a1 and c2 = clamp b1 in
    let ramp =
      (((c2 -. a1) *. (c2 -. a1)) -. ((c1 -. a1) *. (c1 -. a1))) /. (2.0 *. (b1 -. a1))
    in
    (ramp +. (b2 -. c2)) /. (b2 -. a2)
  end

(* A join summary's histograms, as plain arrays. *)
type hists = {
  n_r : int;
  n_s : int;
  bounds_r : float array;
  mass_r : float array;
  bounds_s : float array;
  mass_s : float array;
}

let reference_join_eq h =
  let acc = ref 0.0 in
  for i = 0 to Array.length h.mass_r - 1 do
    let a1 = h.bounds_r.(i) and b1 = h.bounds_r.(i + 1) in
    let dr = h.mass_r.(i) /. (b1 -. a1) in
    if dr > 0.0 then
      for k = 0 to Array.length h.mass_s - 1 do
        let a2 = h.bounds_s.(k) and b2 = h.bounds_s.(k + 1) in
        let overlap = Float.min b1 b2 -. Float.max a1 a2 in
        if overlap > 0.0 then
          acc := !acc +. (dr *. (h.mass_s.(k) /. (b2 -. a2)) *. overlap)
      done
  done;
  float_of_int h.n_r *. float_of_int h.n_s *. !acc

let reference_join_lt h =
  let acc = ref 0.0 in
  for i = 0 to Array.length h.mass_r - 1 do
    let a1 = h.bounds_r.(i) and b1 = h.bounds_r.(i + 1) in
    let mr = h.mass_r.(i) in
    if mr > 0.0 then
      for k = 0 to Array.length h.mass_s - 1 do
        let a2 = h.bounds_s.(k) and b2 = h.bounds_s.(k + 1) in
        let ms = h.mass_s.(k) in
        if ms > 0.0 then acc := !acc +. (mr *. ms *. reference_prob_lt ~a1 ~b1 ~a2 ~b2)
      done
  done;
  float_of_int h.n_r *. float_of_int h.n_s *. !acc

let reference_join h = function
  | Stored.Join_eq -> reference_join_eq h
  | Stored.Join_lt -> reference_join_lt h
  | Stored.Join_le -> reference_join_lt h +. reference_join_eq h

(* The serialized form of [h] — the only door to a join summary with
   chosen bucket masses (zero-mass buckets never come out of an
   equi-depth build). *)
let join_text ~lo ~hi h =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "selest-stored-join v1\n";
  Buffer.add_string buf (Printf.sprintf "domain %.17g %.17g\n" lo hi);
  Buffer.add_string buf (Printf.sprintf "sizes %d %d\n" h.n_r h.n_s);
  let section name a =
    Buffer.add_string buf (Printf.sprintf "%s %d\n" name (Array.length a));
    Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf "%.17g\n" v)) a
  in
  section "bounds_r" h.bounds_r;
  section "mass_r" h.mass_r;
  section "bounds_s" h.bounds_s;
  section "mass_s" h.mass_s;
  section "sample_r" [| lo |];
  section "sample_s" [| hi |];
  Buffer.contents buf

(* The histograms of a built summary, read back from its text. *)
let hists_of_join j =
  let lines = Array.of_list (String.split_on_char '\n' (Stored.join_to_string j)) in
  let section name =
    let rec find i =
      match String.split_on_char ' ' lines.(i) with
      | [ n; c ] when n = name ->
        Array.init (int_of_string c) (fun k -> float_of_string lines.(i + 1 + k))
      | _ -> find (i + 1)
    in
    find 0
  in
  let n_r, n_s = Stored.join_sizes j in
  {
    n_r;
    n_s;
    bounds_r = section "bounds_r";
    mass_r = section "mass_r";
    bounds_s = section "bounds_s";
    mass_s = section "mass_s";
  }

(* eq sums the same pairs in the same order as the pair grid, so it
   must agree bit for bit; lt/le sum in a different order, so they agree
   to 1e-12 relative. *)
let join_matches_reference j h =
  List.for_all
    (fun pred ->
      let got = Stored.join_estimate j ~pred and want = reference_join h pred in
      let ok =
        match pred with
        | Stored.Join_eq -> Float.equal got want
        | Stored.Join_lt | Stored.Join_le ->
          Float.abs (got -. want) <= 1e-12 *. Float.abs want
      in
      if not ok then
        QCheck.Test.fail_reportf "%s over %dx%d buckets: sweep %h, reference %h"
          (Stored.join_pred_to_string pred) (Array.length h.mass_r) (Array.length h.mass_s)
          got want;
      true)
    [ Stored.Join_eq; Stored.Join_lt; Stored.Join_le ]

(* Crafted histograms: 1-64 buckets per side on random bounds, a quarter
   of the buckets empty, and in two modes out of four the supports split
   at a shared bound so that R lies wholly below or wholly above S. *)
let gen_hists =
  QCheck.Gen.(
    let lo = -0.5 and hi = 512.5 in
    let gen_bounds k split =
      let* inner = list_size (return (k - 1)) (float_range (lo +. 1e-3) (hi -. 1e-3)) in
      let pts = List.sort_uniq Float.compare (split @ inner) in
      return (Array.of_list ((lo :: pts) @ [ hi ]))
    in
    let gen_mass bounds keep =
      let n = Array.length bounds - 1 in
      let* raw =
        list_size (return n)
          (frequency [ (1, return 0.0); (3, float_range 1e-3 1.0) ])
      in
      return
        (Array.of_list
           (List.mapi (fun i m -> if keep bounds.(i) bounds.(i + 1) then m else 0.0) raw))
    in
    let* kr = int_range 1 64 in
    let* ks = int_range 1 64 in
    let* mode = int_bound 3 in
    let* t = float_range 1.0 511.0 in
    let split = if mode >= 2 then [ t ] else [] in
    let* bounds_r = gen_bounds kr split in
    let* bounds_s = gen_bounds ks split in
    let below _ b1 = b1 <= t and above a1 _ = a1 >= t and any _ _ = true in
    let keep_r, keep_s =
      match mode with 2 -> (below, above) | 3 -> (above, below) | _ -> (any, any)
    in
    let* mass_r = gen_mass bounds_r keep_r in
    let* mass_s = gen_mass bounds_s keep_s in
    let* n_r = int_range 1 100_000 in
    let* n_s = int_range 1 100_000 in
    return (lo, hi, { n_r; n_s; bounds_r; mass_r; bounds_s; mass_s }))

let prop_join_reference_crafted =
  QCheck.Test.make ~count:400 ~name:"join sweeps match the pair grid (crafted histograms)"
    (QCheck.make gen_hists) (fun (lo, hi, h) ->
      match Stored.join_of_string (join_text ~lo ~hi h) with
      | Error msg -> QCheck.Test.fail_reportf "crafted join rejected: %s" msg
      | Ok j -> join_matches_reference j h)

(* Built histograms: equi-depth summaries of 1-64 buckets from samples
   that overlap, or sit on disjoint halves of the domain. *)
let prop_join_reference_built =
  let arb =
    QCheck.make
      QCheck.Gen.(
        let* disjoint = bool in
        let* nr = int_range 1 300 in
        let* ns = int_range 1 300 in
        let r_hi, s_lo = if disjoint then (200.0, 300.0) else (512.0, 0.0) in
        let* sample_r = array_size (return nr) (float_bound_inclusive r_hi) in
        let* sample_s = array_size (return ns) (float_range s_lo 512.0) in
        let* buckets = int_range 1 64 in
        return (sample_r, sample_s, buckets))
  in
  QCheck.Test.make ~count:300 ~name:"join sweeps match the pair grid (built summaries)" arb
    (fun (sample_r, sample_s, buckets) ->
      let j =
        Stored.join_of_samples ~domain:(-0.5, 512.5) ~buckets ~n_r:10_000 ~n_s:8_000
          sample_r sample_s
      in
      join_matches_reference j (hists_of_join j))

(* of_string never raises: every malformed input maps to Error. *)
let malformed_cases =
  [
    ("empty", "");
    ("garbage", "not a summary at all");
    ("wrong magic", "selest-stored v9\ndomain 0 1\ncells 1\n0.5\n");
    ("missing domain", "selest-stored v1\ncells 1\n0.5\n");
    ("empty domain", "selest-stored v1\ndomain 5 5\ncells 1\n0.5\n");
    ("inverted domain", "selest-stored v1\ndomain 9 3\ncells 1\n0.5\n");
    ("non-float domain", "selest-stored v1\ndomain a b\ncells 1\n0.5\n");
    ("missing cells", "selest-stored v1\ndomain 0 1\n0.5\n");
    ("zero cells", "selest-stored v1\ndomain 0 1\ncells 0\n");
    ("negative cells", "selest-stored v1\ndomain 0 1\ncells -4\n0.5\n");
    ("cells mismatch", "selest-stored v1\ndomain 0 1\ncells 3\n0.5\n0.5\n");
    ("extra weight", "selest-stored v1\ndomain 0 1\ncells 1\n0.5\n0.5\n");
    ("garbage weight", "selest-stored v1\ndomain 0 1\ncells 2\n0.5\nhello\n");
    ("negative weight", "selest-stored v1\ndomain 0 1\ncells 2\n0.5\n-0.1\n");
    ("nan weight", "selest-stored v1\ndomain 0 1\ncells 2\n0.5\nnan\n");
    ("infinite weight", "selest-stored v1\ndomain 0 1\ncells 2\n0.5\ninf\n");
  ]

let test_malformed () =
  List.iter
    (fun (label, input) ->
      match Stored.of_string input with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: malformed input accepted" label
      | exception e ->
        Alcotest.failf "%s: of_string raised %s" label (Printexc.to_string e))
    malformed_cases

(* The rect and join parsers share the totality contract, including
   cross-kind confusion: feeding one kind's text to another's parser
   must be a clean Error. *)
let test_malformed_rect_join () =
  let rect_text =
    Stored.rect_to_string
      (Stored.rect_of_points ~domain_x:(0.0, 4.0) ~domain_y:(0.0, 4.0) ~bins_x:2 ~bins_y:2
         [| (1.0, 1.0); (3.0, 3.0) |])
  in
  let join_text =
    Stored.join_to_string
      (Stored.join_of_samples ~domain:(0.0, 8.0) ~buckets:4 ~n_r:100 ~n_s:100
         [| 1.0; 2.0; 3.0 |] [| 4.0; 5.0 |])
  in
  let expect_error parser label input =
    match parser input with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: malformed input accepted" label
    | exception e -> Alcotest.failf "%s: parser raised %s" label (Printexc.to_string e)
  in
  List.iter
    (expect_error Stored.rect_of_string "rect")
    [ ""; "garbage"; join_text; stored_text ~lo:0.0 ~hi:1.0 [ 0.5 ] ];
  List.iter
    (expect_error Stored.join_of_string "join")
    [ ""; "garbage"; rect_text; stored_text ~lo:0.0 ~hi:1.0 [ 0.5 ] ];
  (* Every truncation of well-formed text must be handled without
     raising (a benign cut, e.g. the trailing newline, may still parse). *)
  let sweep parser text =
    for len = 0 to String.length text - 1 do
      match parser (String.sub text 0 len) with
      | Ok _ | Error _ -> ()
      | exception e ->
        Alcotest.failf "truncated at %d: parser raised %s" len (Printexc.to_string e)
    done
  in
  sweep Stored.rect_of_string rect_text;
  sweep Stored.join_of_string join_text

(* Bounds beyond the domain clamp to the edge cells, however far out:
   infinite and huge bounds answer like the domain edges, NaN bounds
   like an empty range. *)
let test_unbounded_queries () =
  let t = stored_of_weights ~lo:0.0 ~hi:4.0 [ 0.1; 0.2; 0.3; 0.4 ] in
  let sel a b = Stored.selectivity t ~a ~b in
  checkf "upper bound +inf" (sel 1.0 4.0) (sel 1.0 Float.infinity);
  checkf "upper bound 1e300" (sel 1.0 4.0) (sel 1.0 1e300);
  checkf "lower bound -inf" (sel 0.0 2.0) (sel Float.neg_infinity 2.0);
  checkf "both unbounded" (sel 0.0 4.0) (sel (-1e300) Float.infinity);
  checkf "NaN lower bound" 0.0 (sel Float.nan 2.0);
  checkf "NaN upper bound" 0.0 (sel 1.0 Float.nan)

(* to_string survives weights that only differ past float precision. *)
let test_tiny_weights () =
  let t = stored_of_weights ~lo:0.0 ~hi:1.0 [ 1e-300; 4.9e-324; 0.0; 0.25 ] in
  (match Stored.of_string (Stored.to_string t) with
  | Ok t' -> check Alcotest.string "text identical" (Stored.to_string t) (Stored.to_string t')
  | Error msg -> Alcotest.failf "denormal weights rejected: %s" msg);
  checkf "mass of last cell intact"
    (Stored.selectivity t ~a:0.75 ~b:1.0)
    0.25

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_round_trip; prop_round_trip_of_sample; prop_rect_round_trip; prop_join_round_trip ]
  in
  let reference =
    List.map QCheck_alcotest.to_alcotest
      [ prop_range_reference; prop_join_reference_crafted; prop_join_reference_built ]
  in
  Alcotest.run "stored"
    [
      ("round-trip", qsuite);
      ( "reference",
        reference
        @ [ Alcotest.test_case "unbounded bounds clamp" `Quick test_unbounded_queries ] );
      ( "malformed",
        [
          Alcotest.test_case "errors, never raises" `Quick test_malformed;
          Alcotest.test_case "rect/join parsers total" `Quick test_malformed_rect_join;
          Alcotest.test_case "denormal weights" `Quick test_tiny_weights;
        ] );
    ]
