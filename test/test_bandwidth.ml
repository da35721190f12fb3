(* Tests for the bandwidth library: AMISE formulas, normal-scale constants,
   plug-in iteration, LSCV and oracle search. *)

module A = Bandwidth.Amise
module NS = Bandwidth.Normal_scale
module PI = Bandwidth.Plug_in
module L = Bandwidth.Lscv
module O = Bandwidth.Oracle
module K = Kernels.Kernel
module Xo = Prng.Xoshiro256pp

let checkf tol = Alcotest.(check (float tol))

let normal_sample seed n =
  let rng = Xo.create seed in
  Array.init n (fun _ ->
      let u1 = 1.0 -. Xo.float rng and u2 = Xo.float rng in
      sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let bimodal_sample seed n =
  let rng = Xo.create seed in
  Array.init n (fun _ ->
      let z =
        let u1 = 1.0 -. Xo.float rng and u2 = Xo.float rng in
        sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)
      in
      if Xo.bool rng then (0.3 *. z) -. 4.0 else (0.3 *. z) +. 4.0)

(* --- AMISE --- *)

let test_optimal_bin_width_formula () =
  (* h_EW = (6/(n R1))^(1/3). *)
  checkf 1e-12 "formula" ((6.0 /. (1000.0 *. 0.5)) ** (1.0 /. 3.0))
    (A.optimal_bin_width ~n:1000 ~roughness_d1:0.5)

let test_optimal_bin_width_minimizes () =
  let n = 500 and r = 0.3 in
  let h_star = A.optimal_bin_width ~n ~roughness_d1:r in
  let at = A.histogram_amise ~n ~h:h_star ~roughness_d1:r in
  List.iter
    (fun factor ->
      let worse = A.histogram_amise ~n ~h:(h_star *. factor) ~roughness_d1:r in
      if worse < at then Alcotest.failf "not a minimum at factor %f" factor)
    [ 0.5; 0.8; 1.25; 2.0 ]

let test_optimal_bandwidth_formula () =
  (* h_K = (R(K)/(n k2^2 R2))^(1/5). *)
  let expected = (0.6 /. (1000.0 *. 0.04 *. 0.7)) ** 0.2 in
  checkf 1e-12 "formula" expected
    (A.optimal_bandwidth ~kernel:K.Epanechnikov ~n:1000 ~roughness_d2:0.7)

let test_optimal_bandwidth_minimizes () =
  let n = 500 and r = 0.3 in
  let h_star = A.optimal_bandwidth ~kernel:K.Epanechnikov ~n ~roughness_d2:r in
  let at = A.kernel_amise ~kernel:K.Epanechnikov ~n ~h:h_star ~roughness_d2:r in
  List.iter
    (fun factor ->
      let worse = A.kernel_amise ~kernel:K.Epanechnikov ~n ~h:(h_star *. factor) ~roughness_d2:r in
      if worse < at then Alcotest.failf "not a minimum at factor %f" factor)
    [ 0.5; 0.8; 1.25; 2.0 ]

let test_amise_convergence_rates () =
  (* AMISE at the optimum must scale as n^(-2/3) (histogram) and n^(-4/5)
     (kernel). *)
  let r1 = 0.5 and r2 = 0.5 in
  let ratio_hist =
    A.histogram_amise_at_optimum ~n:8000 ~roughness_d1:r1
    /. A.histogram_amise_at_optimum ~n:1000 ~roughness_d1:r1
  in
  checkf 1e-9 "histogram rate" (8.0 ** (-2.0 /. 3.0)) ratio_hist;
  let ratio_kernel =
    A.kernel_amise_at_optimum ~kernel:K.Epanechnikov ~n:8000 ~roughness_d2:r2
    /. A.kernel_amise_at_optimum ~kernel:K.Epanechnikov ~n:1000 ~roughness_d2:r2
  in
  checkf 1e-9 "kernel rate" (8.0 ** (-0.8)) ratio_kernel

let test_amise_validation () =
  Alcotest.check_raises "bad roughness"
    (Invalid_argument "Amise.optimal_bin_width: roughness functional must be positive and finite")
    (fun () -> ignore (A.optimal_bin_width ~n:10 ~roughness_d1:0.0));
  Alcotest.check_raises "bad n" (Invalid_argument "Amise.optimal_bandwidth: n must be positive")
    (fun () -> ignore (A.optimal_bandwidth ~kernel:K.Epanechnikov ~n:0 ~roughness_d2:1.0))

(* --- normal scale --- *)

let test_ns_bin_width_constant () =
  (* (24 sqrt pi)^(1/3) ~ 3.4908. *)
  checkf 1e-3 "constant" 3.4908 (NS.bin_width ~n:1 ~scale:1.0)

let test_ns_bandwidth_paper_constant () =
  (* The paper's Epanechnikov constant: h ~ 2.345 s n^(-1/5). *)
  checkf 1e-3 "2.345" 2.3455 (NS.bandwidth ~kernel:K.Epanechnikov ~n:1 ~scale:1.0)

let test_ns_gaussian_constant () =
  (* The classical 1.06 sigma n^(-1/5) rule. *)
  checkf 1e-3 "1.0592" 1.0592 (NS.bandwidth ~kernel:K.Gaussian ~n:1 ~scale:1.0)

let test_ns_scaling_laws () =
  let w1 = NS.bin_width ~n:1000 ~scale:2.0 in
  checkf 1e-9 "linear in scale" (2.0 *. NS.bin_width ~n:1000 ~scale:1.0) w1;
  checkf 1e-9 "n^(-1/3)"
    (NS.bin_width ~n:1000 ~scale:1.0 /. 2.0)
    (NS.bin_width ~n:8000 ~scale:1.0);
  checkf 1e-9 "n^(-1/5)"
    (NS.bandwidth ~kernel:K.Epanechnikov ~n:100 ~scale:1.0 /. 2.0)
    (NS.bandwidth ~kernel:K.Epanechnikov ~n:3200 ~scale:1.0)

let test_ns_bin_count () =
  let k = NS.bin_count ~domain:(0.0, 100.0) ~n:1000 ~scale:5.0 in
  let h = NS.bin_width ~n:1000 ~scale:5.0 in
  Alcotest.(check int) "ceil" (int_of_float (Float.ceil (100.0 /. h))) k

let test_ns_of_samples () =
  let xs = normal_sample 1L 2000 in
  let h = NS.bandwidth_of_samples ~kernel:K.Epanechnikov xs in
  (* scale ~ 1, so h ~ 2.345 * 2000^(-0.2) ~ 0.51. *)
  Alcotest.(check bool) "plausible" true (h > 0.4 && h < 0.65)

(* --- plug-in --- *)

let test_plug_in_zero_iterations_close_to_ns_on_normal () =
  (* On truly normal data the plug-in estimate of int f''^2 from the NS
     pilot is close to the normal closed form, so h-DPI ~ h-NS. *)
  let xs = normal_sample 2L 2000 in
  let h_ns = NS.bandwidth_of_samples ~kernel:K.Epanechnikov xs in
  let h_dpi = PI.bandwidth ~iterations:2 ~kernel:K.Epanechnikov xs in
  Alcotest.(check bool)
    (Printf.sprintf "within 30%% (%.3f vs %.3f)" h_dpi h_ns)
    true
    (Float.abs (h_dpi -. h_ns) /. h_ns < 0.3)

let test_plug_in_shrinks_on_bimodal () =
  (* Bimodal data has much higher curvature than a normal with the same
     variance: DPI must choose a clearly smaller bandwidth than NS. *)
  let xs = bimodal_sample 3L 2000 in
  let h_ns = NS.bandwidth_of_samples ~kernel:K.Epanechnikov xs in
  let h_dpi = PI.bandwidth ~iterations:2 ~kernel:K.Epanechnikov xs in
  Alcotest.(check bool)
    (Printf.sprintf "shrinks (%.3f vs %.3f)" h_dpi h_ns)
    true (h_dpi < 0.5 *. h_ns)

let test_plug_in_functionals_positive () =
  let xs = normal_sample 4L 1000 in
  let d1, d2 = PI.functionals ~iterations:2 xs in
  Alcotest.(check bool) "d1 positive" true (d1 > 0.0);
  Alcotest.(check bool) "d2 positive" true (d2 > 0.0)

let test_plug_in_functionals_near_normal_truth () =
  (* For a standard normal: int f'^2 = 1/(4 sqrt pi) ~ 0.141,
     int f''^2 = 3/(8 sqrt pi) ~ 0.2116. *)
  let xs = normal_sample 5L 4000 in
  let d1, d2 = PI.functionals ~iterations:2 xs in
  Alcotest.(check bool)
    (Printf.sprintf "d1 close (%.4f)" d1)
    true
    (Float.abs (d1 -. 0.141) /. 0.141 < 0.25);
  Alcotest.(check bool)
    (Printf.sprintf "d2 close (%.4f)" d2)
    true
    (Float.abs (d2 -. 0.2116) /. 0.2116 < 0.35)

let test_plug_in_bin_count_reasonable () =
  let xs = normal_sample 6L 2000 in
  let k = PI.bin_count ~domain:(-5.0, 5.0) xs in
  Alcotest.(check bool) (Printf.sprintf "bins %d" k) true (k > 5 && k < 200)

let test_plug_in_validation () =
  Alcotest.check_raises "negative iterations"
    (Invalid_argument "Plug_in.functionals: iterations must be >= 0") (fun () ->
      ignore (PI.functionals ~iterations:(-1) (normal_sample 1L 10)))

(* The plug-in fit as it stood before its pair sums were unboxed: each
   kernel derivative reaches the pair loop as a closure, every pilot
   sorts its own copy, and both functionals of the last pilot are
   computed.  [Kde.Pilot] and [Plug_in] must reproduce it bit for bit. *)
module Closure_fit = struct
  let cutoff = 8.0

  let pair_sum xs s g =
    let n = Array.length xs in
    let r = cutoff *. s in
    let acc = ref (float_of_int n *. g 0.0) in
    for i = 0 to n - 1 do
      let j = ref (i + 1) in
      while !j < n && xs.(!j) -. xs.(i) <= r do
        acc := !acc +. (2.0 *. g ((xs.(!j) -. xs.(i)) /. s));
        incr j
      done
    done;
    !acc /. float_of_int (n * n)

  let sorted samples =
    let xs = Array.copy samples in
    Array.sort Float.compare xs;
    xs

  (* A pilot is its bandwidth and its own sorted copy, as [Pilot.create]
     made it; it raised on a bandwidth that is not positive and finite. *)
  let pilot ~h samples =
    if h <= 0.0 || not (Float.is_finite h) then invalid_arg "pilot";
    (h, sorted samples)

  let roughness_deriv1 (h, xs) =
    let s = Float.sqrt 2.0 *. h in
    let g u = ((u *. u) -. 1.0) *. Stats.Special.normal_pdf u in
    -.(pair_sum xs s g /. (s ** 3.0))

  let roughness_deriv2 (h, xs) =
    let s = Float.sqrt 2.0 *. h in
    let g u =
      let u2 = u *. u in
      ((u2 *. u2) -. (6.0 *. u2) +. 3.0) *. Stats.Special.normal_pdf u
    in
    pair_sum xs s g /. (s ** 5.0)

  let iterated_functionals ~iterations samples =
    let xs = sorted samples in
    let sigma = Stats.Quantile.robust_scale_sorted xs in
    let sigma = if sigma > 0.0 && Float.is_finite sigma then sigma else 1.0 in
    let n = Array.length samples in
    let g = ref (NS.bandwidth ~kernel:K.Gaussian ~n ~scale:sigma) in
    let p = ref (pilot ~h:!g samples) in
    for _ = 1 to iterations do
      let psi4 = roughness_deriv2 !p in
      if psi4 > 0.0 && Float.is_finite psi4 then begin
        g := A.optimal_bandwidth ~kernel:K.Gaussian ~n ~roughness_d2:psi4;
        p := pilot ~h:!g samples
      end
    done;
    (roughness_deriv1 !p, roughness_deriv2 !p)

  let bandwidth ~iterations ~kernel samples =
    let _, psi4 = iterated_functionals ~iterations samples in
    if psi4 <= 0.0 || not (Float.is_finite psi4) then NS.bandwidth_of_samples ~kernel samples
    else A.optimal_bandwidth ~kernel ~n:(Array.length samples) ~roughness_d2:psi4

  let bin_width ~iterations samples =
    let d1, _ = iterated_functionals ~iterations samples in
    if d1 <= 0.0 || not (Float.is_finite d1) then NS.bin_width_of_samples samples
    else A.optimal_bin_width ~n:(Array.length samples) ~roughness_d1:d1
end

(* A result's bits, or the fact that it was refused. *)
let outcome f =
  match f () with
  | v -> Ok (Int64.bits_of_float v)
  | exception Invalid_argument _ -> Error ()

(* Samples of 2-160 values: constant, heavy ties (7 distinct values), or
   spread out; each scaled by 10^e for e in [-300, 300]. *)
let fit_sample =
  let open QCheck.Gen in
  let* n = frequency [ (1, return 2); (4, int_range 2 160) ] in
  let* scale = map (fun e -> 10.0 ** float_of_int e) (int_range (-300) 300) in
  let* shape = int_range 0 3 in
  match shape with
  | 0 -> return (Array.make n (3.0 *. scale))
  | 1 -> array_size (return n) (map (fun k -> scale *. float_of_int k) (int_range (-3) 3))
  | _ -> array_size (return n) (map (fun x -> scale *. x) (float_range (-1.0) 1.0))

let print_sample a =
  String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") a))

let prop_pilot_roughness_bits =
  QCheck.Test.make ~name:"pilot roughness bit-equal" ~count:300
    (QCheck.make
       ~print:(fun (a, h) -> Printf.sprintf "h=%h [%s]" h (print_sample a))
       QCheck.Gen.(
         let* a = fit_sample in
         let spread = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0.0 a in
         let* k = int_range (-3) 3 in
         let h = (if spread > 0.0 then spread else 1.0) *. (10.0 ** float_of_int k) in
         return (a, h)))
    (fun (a, h) ->
      let p = Kde.Pilot.create ~h a and c = Closure_fit.pilot ~h a in
      outcome (fun () -> Kde.Pilot.roughness_deriv1 p)
      = outcome (fun () -> Closure_fit.roughness_deriv1 c)
      && outcome (fun () -> Kde.Pilot.roughness_deriv2 p)
         = outcome (fun () -> Closure_fit.roughness_deriv2 c))

let prop_plug_in_fit_bits =
  QCheck.Test.make ~name:"plug-in fit bit-equal" ~count:300
    (QCheck.make
       ~print:(fun (a, i) -> Printf.sprintf "iterations=%d [%s]" i (print_sample a))
       QCheck.Gen.(pair fit_sample (int_range 1 3)))
    (fun (a, iterations) ->
      outcome (fun () -> PI.bandwidth ~iterations ~kernel:K.Epanechnikov a)
      = outcome (fun () -> Closure_fit.bandwidth ~iterations ~kernel:K.Epanechnikov a)
      && outcome (fun () -> PI.bin_width ~iterations a)
         = outcome (fun () -> Closure_fit.bin_width ~iterations a))

(* The paper's [kernel] spec (Epanechnikov, h-DPI2) fit on a full
   1,024-value reservoir.  With the derivative behind a closure the pair
   sums boxed ~10M words; unboxed, the fit allocates a few thousand. *)
let test_kernel_fit_allocation () =
  let sample = bimodal_sample 24L 1024 in
  let spec = Result.get_ok (Selest.Estimator.spec_of_string "kernel") in
  let domain = (-8.0, 8.0) in
  ignore (Selest.Estimator.build spec ~domain sample);
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Selest.Estimator.build spec ~domain sample));
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words < 100k" words)
    true (words < 100_000.0)

(* --- LSCV --- *)

let test_lscv_objective_shape () =
  (* The LSCV score must be worse at extreme bandwidths than near the
     optimum. *)
  let xs = normal_sample 7L 500 in
  let near = L.objective xs 0.3 in
  let tiny = L.objective xs 0.005 in
  let huge = L.objective xs 30.0 in
  Alcotest.(check bool) "tiny worse" true (tiny > near);
  Alcotest.(check bool) "huge worse" true (huge > near)

let test_lscv_bandwidth_reasonable () =
  let xs = normal_sample 8L 800 in
  let h = L.bandwidth ~kernel:K.Epanechnikov xs in
  let h_ns = NS.bandwidth_of_samples ~kernel:K.Epanechnikov xs in
  (* LSCV is noisy but should land within a factor ~2.5 of NS on normal
     data. *)
  Alcotest.(check bool)
    (Printf.sprintf "in range (%.3f vs NS %.3f)" h h_ns)
    true
    (h > h_ns /. 2.5 && h < h_ns *. 2.5)

let test_lscv_validation () =
  Alcotest.check_raises "h" (Invalid_argument "Lscv.objective: bandwidth must be positive and finite")
    (fun () -> ignore (L.objective (normal_sample 1L 10) 0.0))

(* --- oracle --- *)

let test_oracle_bandwidth_finds_minimum () =
  let objective h = ((log h -. log 2.0) ** 2.0) +. 0.1 in
  let h, e = O.best_bandwidth ~objective ~lo:0.01 ~hi:100.0 () in
  Alcotest.(check bool) "argmin" true (Float.abs (h -. 2.0) /. 2.0 < 0.05);
  checkf 1e-3 "min" 0.1 e

let test_oracle_bin_count_finds_minimum () =
  let objective k = Float.abs (float_of_int k -. 37.0) in
  let k, _ = O.best_bin_count ~max_bins:500 ~objective () in
  (* The geometric grid does not contain every integer; accept the nearest
     grid point. *)
  Alcotest.(check bool) (Printf.sprintf "near 37 (%d)" k) true (abs (k - 37) <= 3)

let test_oracle_bin_count_includes_one () =
  let objective k = float_of_int k in
  let k, _ = O.best_bin_count ~max_bins:100 ~objective () in
  Alcotest.(check int) "one bin" 1 k

(* --- MISE simulation --- *)

module Mi = Bandwidth.Mise

let std_normal_model = Dists.Model.normal ~mu:0.0 ~sigma:1.0
let mise_domain = (-6.0, 6.0)

let test_mise_validation () =
  Alcotest.check_raises "replications" (Invalid_argument "Mise.simulate: replications must be positive")
    (fun () ->
      ignore
        (Mi.simulate ~replications:0 ~model:std_normal_model ~domain:mise_domain ~n:10 ~seed:1L
           ~build:(fun _ _ -> 0.0) ()))

let test_mise_zero_for_perfect_estimator () =
  let r =
    Mi.simulate ~replications:3 ~model:std_normal_model ~domain:mise_domain ~n:10 ~seed:2L
      ~build:(fun _ -> Dists.Model.pdf std_normal_model)
      ()
  in
  checkf 1e-12 "perfect estimator" 0.0 r.Mi.mise

let test_kernel_mise_minimized_near_amise_optimum () =
  (* The AMISE-optimal bandwidth must beat strong over- and
     under-smoothing in the simulated true MISE. *)
  let n = 200 in
  let roughness = 3.0 /. (8.0 *. 1.7724538509055159) in
  let h_star = A.optimal_bandwidth ~kernel:K.Epanechnikov ~n ~roughness_d2:roughness in
  let mise h =
    (Mi.kernel_mise ~replications:20 ~model:std_normal_model ~domain:mise_domain ~n ~h
       ~seed:3L ())
      .Mi.mise
  in
  let at_star = mise h_star in
  Alcotest.(check bool)
    (Printf.sprintf "h*/5 worse (%.5f vs %.5f)" (mise (h_star /. 5.0)) at_star)
    true
    (mise (h_star /. 5.0) > at_star);
  Alcotest.(check bool)
    (Printf.sprintf "5h* worse (%.5f vs %.5f)" (mise (h_star *. 5.0)) at_star)
    true
    (mise (h_star *. 5.0) > at_star)

let test_kernel_mise_matches_amise_value () =
  (* At the optimum and a moderate n, AMISE approximates MISE within ~35%. *)
  let n = 500 in
  let roughness = 3.0 /. (8.0 *. 1.7724538509055159) in
  let h_star = A.optimal_bandwidth ~kernel:K.Epanechnikov ~n ~roughness_d2:roughness in
  let predicted = A.kernel_amise ~kernel:K.Epanechnikov ~n ~h:h_star ~roughness_d2:roughness in
  let measured =
    (Mi.kernel_mise ~replications:30 ~model:std_normal_model ~domain:mise_domain ~n ~h:h_star
       ~seed:4L ())
      .Mi.mise
  in
  Alcotest.(check bool)
    (Printf.sprintf "AMISE %.5f ~ MISE %.5f" predicted measured)
    true
    (Float.abs (measured -. predicted) /. predicted < 0.35)

let test_histogram_mise_minimized_near_amise_optimum () =
  let n = 200 in
  let roughness = 1.0 /. (4.0 *. 1.7724538509055159) in
  let h_star = A.optimal_bin_width ~n ~roughness_d1:roughness in
  let domain_width = 12.0 in
  let bins_star = int_of_float (Float.round (domain_width /. h_star)) in
  let mise bins =
    (Mi.histogram_mise ~replications:20 ~model:std_normal_model ~domain:mise_domain ~n ~bins
       ~seed:5L ())
      .Mi.mise
  in
  let at_star = mise bins_star in
  Alcotest.(check bool) "far fewer bins worse" true (mise (Int.max 1 (bins_star / 6)) > at_star);
  Alcotest.(check bool) "far more bins worse" true (mise (bins_star * 6) > at_star)

let test_mise_decreases_with_n () =
  let roughness = 3.0 /. (8.0 *. 1.7724538509055159) in
  let mise n =
    let h = A.optimal_bandwidth ~kernel:K.Epanechnikov ~n ~roughness_d2:roughness in
    (Mi.kernel_mise ~replications:20 ~model:std_normal_model ~domain:mise_domain ~n ~h ~seed:6L ())
      .Mi.mise
  in
  let small = mise 100 and large = mise 1600 in
  (* Theory: factor 16^(4/5) ~ 9.2; allow generous slack for Monte-Carlo
     noise and the boundary-free domain. *)
  Alcotest.(check bool)
    (Printf.sprintf "n=1600 (%.6f) much better than n=100 (%.6f)" large small)
    true
    (large < small /. 4.0)

let () =
  Alcotest.run "bandwidth"
    [
      ( "amise",
        [
          Alcotest.test_case "bin width formula" `Quick test_optimal_bin_width_formula;
          Alcotest.test_case "bin width minimizes" `Quick test_optimal_bin_width_minimizes;
          Alcotest.test_case "bandwidth formula" `Quick test_optimal_bandwidth_formula;
          Alcotest.test_case "bandwidth minimizes" `Quick test_optimal_bandwidth_minimizes;
          Alcotest.test_case "convergence rates" `Quick test_amise_convergence_rates;
          Alcotest.test_case "validation" `Quick test_amise_validation;
        ] );
      ( "normal scale",
        [
          Alcotest.test_case "bin width constant" `Quick test_ns_bin_width_constant;
          Alcotest.test_case "paper's 2.345" `Quick test_ns_bandwidth_paper_constant;
          Alcotest.test_case "gaussian 1.06" `Quick test_ns_gaussian_constant;
          Alcotest.test_case "scaling laws" `Quick test_ns_scaling_laws;
          Alcotest.test_case "bin count" `Quick test_ns_bin_count;
          Alcotest.test_case "of samples" `Quick test_ns_of_samples;
        ] );
      ( "plug-in",
        [
          Alcotest.test_case "close to NS on normal" `Quick
            test_plug_in_zero_iterations_close_to_ns_on_normal;
          Alcotest.test_case "shrinks on bimodal" `Quick test_plug_in_shrinks_on_bimodal;
          Alcotest.test_case "functionals positive" `Quick test_plug_in_functionals_positive;
          Alcotest.test_case "functionals near truth" `Slow
            test_plug_in_functionals_near_normal_truth;
          Alcotest.test_case "bin count" `Quick test_plug_in_bin_count_reasonable;
          Alcotest.test_case "validation" `Quick test_plug_in_validation;
          QCheck_alcotest.to_alcotest prop_pilot_roughness_bits;
          QCheck_alcotest.to_alcotest prop_plug_in_fit_bits;
          Alcotest.test_case "kernel fit allocation" `Quick test_kernel_fit_allocation;
        ] );
      ( "lscv",
        [
          Alcotest.test_case "objective shape" `Quick test_lscv_objective_shape;
          Alcotest.test_case "bandwidth reasonable" `Quick test_lscv_bandwidth_reasonable;
          Alcotest.test_case "validation" `Quick test_lscv_validation;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "bandwidth minimum" `Quick test_oracle_bandwidth_finds_minimum;
          Alcotest.test_case "bin count minimum" `Quick test_oracle_bin_count_finds_minimum;
          Alcotest.test_case "includes one bin" `Quick test_oracle_bin_count_includes_one;
        ] );
      ( "mise simulation",
        [
          Alcotest.test_case "validation" `Quick test_mise_validation;
          Alcotest.test_case "perfect estimator" `Quick test_mise_zero_for_perfect_estimator;
          Alcotest.test_case "kernel optimum" `Slow test_kernel_mise_minimized_near_amise_optimum;
          Alcotest.test_case "amise value" `Slow test_kernel_mise_matches_amise_value;
          Alcotest.test_case "histogram optimum" `Slow
            test_histogram_mise_minimized_near_amise_optimum;
          Alcotest.test_case "decreases with n" `Slow test_mise_decreases_with_n;
        ] );
    ]
