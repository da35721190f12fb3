(* Tests for the stats library: descriptive statistics, quantiles, special
   functions, integration and minimization. *)

module D = Stats.Descriptive
module Q = Stats.Quantile
module Sp = Stats.Special
module I = Stats.Integrate
module O = Stats.Optimize
module A = Stats.Array_util

let checkf tol = Alcotest.(check (float tol))

(* --- Array_util --- *)

let test_is_sorted () =
  Alcotest.(check bool) "sorted" true (A.is_sorted compare [| 1; 2; 2; 3 |]);
  Alcotest.(check bool) "unsorted" false (A.is_sorted compare [| 1; 3; 2 |]);
  Alcotest.(check bool) "empty" true (A.is_sorted compare ([||] : int array));
  Alcotest.(check bool) "singleton" true (A.is_sorted compare [| 5 |])

let test_bounds_basic () =
  let a = [| 1.0; 2.0; 2.0; 5.0; 9.0 |] in
  Alcotest.(check int) "lower_bound mid" 1 (A.float_lower_bound a 2.0);
  Alcotest.(check int) "upper_bound mid" 3 (A.float_upper_bound a 2.0);
  Alcotest.(check int) "lower_bound below" 0 (A.float_lower_bound a 0.0);
  Alcotest.(check int) "upper_bound above" 5 (A.float_upper_bound a 10.0);
  Alcotest.(check int) "lower_bound between" 3 (A.float_lower_bound a 3.0)

let test_count_in_range () =
  let a = [| 1; 2; 2; 5; 9 |] in
  Alcotest.(check int) "inclusive count" 3 (A.count_in_range compare a 2 5);
  Alcotest.(check int) "empty when inverted" 0 (A.count_in_range compare a 5 2);
  Alcotest.(check int) "whole" 5 (A.count_in_range compare a 0 100)

let prop_bounds_agree_with_scan =
  QCheck.Test.make ~name:"binary search bounds match linear scan" ~count:500
    QCheck.(pair (list (int_range 0 50)) (int_range 0 50))
    (fun (l, x) ->
      let a = Array.of_list (List.sort compare l) in
      let lb = A.int_lower_bound a x and ub = A.int_upper_bound a x in
      let lb' = Array.fold_left (fun acc v -> if v < x then acc + 1 else acc) 0 a in
      let ub' = Array.fold_left (fun acc v -> if v <= x then acc + 1 else acc) 0 a in
      lb = lb' && ub = ub')

(* [float_sort] must leave exactly the permutation [Array.sort
   Float.compare] leaves, so values that compare equal but differ in bits
   (NaN payloads, -0.0 and 0.0) are where a divergence would show. *)
let sort_specials =
  [|
    Float.nan;
    Int64.float_of_bits 0x7FF8_0000_0000_0001L;
    Int64.float_of_bits 0xFFF8_0000_0000_0002L;
    0.0;
    -0.0;
    Float.infinity;
    Float.neg_infinity;
    Float.max_float;
    Float.min_float;
    5e-324;
    -5e-324;
  |]

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let stdlib_sorted a =
  let b = Array.copy a in
  Array.sort Float.compare b;
  b

let float_sorted a =
  let b = Array.copy a in
  A.float_sort b;
  b

let test_float_sort_cases () =
  let check_case name a =
    Alcotest.(check bool) name true (same_bits (stdlib_sorted a) (float_sorted a))
  in
  check_case "empty" [||];
  check_case "singleton NaN" [| Float.nan |];
  check_case "every special, twice" (Array.append sort_specials (Array.copy sort_specials));
  check_case "signed zeros only" (Array.init 40 (fun i -> if i mod 3 = 0 then -0.0 else 0.0));
  check_case "NaN payloads only"
    (Array.init 30 (fun i -> Int64.float_of_bits (Int64.logor 0x7FF8_0000_0000_0000L (Int64.of_int i))));
  (* every length up to 60, descending with duplicates: each heap shape *)
  for n = 0 to 60 do
    check_case (Printf.sprintf "descending n=%d" n)
      (Array.init n (fun i -> float_of_int ((n - i) / 2)))
  done

let prop_float_sort_is_stdlib_sort =
  QCheck.Test.make ~name:"float_sort bit-equals Array.sort" ~count:500
    QCheck.(
      make
        ~print:(fun a ->
          String.concat "; "
            (Array.to_list (Array.map (fun x -> Printf.sprintf "%h" x) a)))
        Gen.(
          array_size (int_range 0 300)
            (frequency
               [
                 (2, oneofa sort_specials);
                 (3, map float_of_int (int_range (-4) 4));
                 (3, float);
               ])))
    (fun a -> same_bits (stdlib_sorted a) (float_sorted a))

(* --- Descriptive --- *)

let test_mean_known () =
  checkf 1e-9 "mean" 2.5 (D.mean [| 1.0; 2.0; 3.0; 4.0 |])

let test_mean_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Descriptive.mean: empty array") (fun () ->
      ignore (D.mean [||]))

let test_variance_known () =
  (* Var of 2,4,4,4,5,5,7,9 is 4 (population) and 32/7 (sample). *)
  let a = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  checkf 1e-9 "population" 4.0 (D.population_variance a);
  checkf 1e-9 "sample" (32.0 /. 7.0) (D.variance a)

let test_variance_constant () =
  checkf 1e-12 "zero variance" 0.0 (D.variance [| 3.0; 3.0; 3.0 |])

let test_kahan_precision () =
  (* Summing 1e16 with many tiny values loses them without compensation. *)
  let a = Array.make 10_001 1.0 in
  a.(0) <- 1e16;
  checkf 0.5 "compensated" (1e16 +. 10_000.0) (D.kahan_sum a)

let test_min_max () =
  let mn, mx = D.min_max [| 3.0; -1.0; 7.0; 0.0 |] in
  checkf 1e-12 "min" (-1.0) mn;
  checkf 1e-12 "max" 7.0 mx

let test_skewness_symmetric () =
  let a = [| -2.0; -1.0; 0.0; 1.0; 2.0 |] in
  checkf 1e-9 "symmetric has zero skew" 0.0 (D.skewness a)

let test_kurtosis_uniformish () =
  (* Discrete uniform on -2..2 has excess kurtosis m4/m2^2 - 3 = 1.7 - 3. *)
  let a = [| -2.0; -1.0; 0.0; 1.0; 2.0 |] in
  checkf 1e-9 "excess kurtosis" (1.7 -. 3.0) (D.kurtosis_excess a)

let test_int_stats () =
  checkf 1e-9 "mean_of_ints" 2.5 (D.mean_of_ints [| 1; 2; 3; 4 |]);
  checkf 1e-9 "stddev_of_ints"
    (D.stddev [| 1.0; 2.0; 3.0; 4.0 |])
    (D.stddev_of_ints [| 1; 2; 3; 4 |])

let prop_variance_nonneg =
  QCheck.Test.make ~name:"variance is non-negative" ~count:300
    QCheck.(list_of_size (Gen.int_range 2 50) (float_range (-100.) 100.))
    (fun l ->
      let a = Array.of_list l in
      D.variance a >= -1e-9)

let prop_mean_bounds =
  QCheck.Test.make ~name:"mean lies between min and max" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-100.) 100.))
    (fun l ->
      let a = Array.of_list l in
      let mn, mx = D.min_max a in
      let m = D.mean a in
      m >= mn -. 1e-9 && m <= mx +. 1e-9)

(* --- Quantile --- *)

let test_quantile_type7 () =
  (* R: quantile(c(1,2,3,4), 0.25, type=7) = 1.75 *)
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  checkf 1e-9 "q25" 1.75 (Q.quantile_sorted a 0.25);
  checkf 1e-9 "q50" 2.5 (Q.quantile_sorted a 0.5);
  checkf 1e-9 "q0" 1.0 (Q.quantile_sorted a 0.0);
  checkf 1e-9 "q1" 4.0 (Q.quantile_sorted a 1.0)

let test_quantile_unsorted_input () =
  checkf 1e-9 "sorts internally" 2.5 (Q.quantile [| 4.0; 1.0; 3.0; 2.0 |] 0.5)

let test_median_singleton () = checkf 1e-9 "single" 42.0 (Q.median_sorted [| 42.0 |])

let test_iqr () =
  let a = Array.init 101 (fun i -> float_of_int i) in
  checkf 1e-9 "iqr of 0..100" 50.0 (Q.iqr_sorted a)

let test_robust_scale_normalish () =
  (* For near-normal data the IQR/1.348 estimate is close to the stddev, and
     robust_scale takes the min of the two. *)
  let a = Array.init 1001 (fun i -> Sp.normal_quantile ((float_of_int i +. 1.0) /. 1002.0)) in
  Array.sort Float.compare a;
  let s = Q.robust_scale_sorted a in
  Alcotest.(check bool) "close to 1" true (Float.abs (s -. 1.0) < 0.05)

let test_robust_scale_degenerate_iqr () =
  (* Heavy duplication: IQR = 0 but stddev > 0; falls back to stddev. *)
  let a = Array.concat [ Array.make 90 5.0; [| 0.0; 10.0 |] ] in
  Array.sort Float.compare a;
  let s = Q.robust_scale_sorted a in
  Alcotest.(check bool) "positive" true (s > 0.0)

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantile is monotone in q" ~count:300
    QCheck.(triple (list_of_size (Gen.int_range 1 40) (float_range 0. 100.)) (float_range 0. 1.) (float_range 0. 1.))
    (fun (l, q1, q2) ->
      let a = Array.of_list (List.sort Float.compare l) in
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      Q.quantile_sorted a lo <= Q.quantile_sorted a hi +. 1e-9)

(* --- Special functions --- *)

let test_erf_reference () =
  (* Reference values from Abramowitz & Stegun. *)
  checkf 1e-7 "erf(0)" 0.0 (Sp.erf 0.0);
  checkf 1e-7 "erf(0.5)" 0.5204998778 (Sp.erf 0.5);
  checkf 1e-7 "erf(1)" 0.8427007929 (Sp.erf 1.0);
  checkf 1e-7 "erf(2)" 0.9953222650 (Sp.erf 2.0);
  checkf 1e-7 "erf(-1)" (-0.8427007929) (Sp.erf (-1.0))

let test_erfc_identity () =
  List.iter
    (fun x -> checkf 1e-12 "erf + erfc = 1" 1.0 (Sp.erf x +. Sp.erfc x))
    [ -3.0; -0.3; 0.0; 0.2; 1.0; 4.5; 9.0 ]

let test_erfc_large_tail () =
  (* erfc(5) = 1.537e-12; naive 1 - erf would be 0. *)
  let v = Sp.erfc 5.0 in
  Alcotest.(check bool) "positive tail" true (v > 1.0e-12 && v < 2.0e-12)

let test_normal_cdf_reference () =
  checkf 1e-9 "Phi(0)" 0.5 (Sp.normal_cdf 0.0);
  checkf 1e-7 "Phi(1.96)" 0.9750021049 (Sp.normal_cdf 1.96);
  checkf 1e-7 "Phi(-1)" 0.1586552539 (Sp.normal_cdf (-1.0))

let test_normal_pdf_reference () =
  checkf 1e-10 "phi(0)" 0.3989422804014327 (Sp.normal_pdf 0.0);
  checkf 1e-10 "phi(1)" 0.24197072451914337 (Sp.normal_pdf 1.0)

let test_normal_quantile_roundtrip () =
  List.iter
    (fun p -> checkf 1e-9 "Phi(Phi^-1(p)) = p" p (Sp.normal_cdf (Sp.normal_quantile p)))
    [ 1e-6; 0.01; 0.25; 0.5; 0.75; 0.99; 1.0 -. 1e-6 ]

let test_normal_quantile_invalid () =
  Alcotest.check_raises "p=0" (Invalid_argument "Special.normal_quantile: p must be in (0,1)")
    (fun () -> ignore (Sp.normal_quantile 0.0))

let prop_cdf_monotone =
  QCheck.Test.make ~name:"normal_cdf is monotone" ~count:500
    QCheck.(pair (float_range (-10.) 10.) (float_range (-10.) 10.))
    (fun (x, y) ->
      let lo = Float.min x y and hi = Float.max x y in
      Sp.normal_cdf lo <= Sp.normal_cdf hi +. 1e-15)

let prop_erf_odd =
  QCheck.Test.make ~name:"erf is odd" ~count:300
    QCheck.(float_range (-6.) 6.)
    (fun x -> Float.abs (Sp.erf (-.x) +. Sp.erf x) < 1e-14)

(* --- Integration --- *)

let test_trapezoid_linear_exact () =
  checkf 1e-12 "linear exact" 12.5 (I.trapezoid (fun x -> x) ~a:0.0 ~b:5.0 ~n:7)

let test_simpson_cubic_exact () =
  (* Simpson integrates cubics exactly. *)
  checkf 1e-9 "cubic exact" 156.25 (I.simpson (fun x -> x ** 3.0) ~a:0.0 ~b:5.0 ~n:10)

let test_simpson_odd_n_rounds () =
  checkf 1e-9 "odd n handled" 156.25 (I.simpson (fun x -> x ** 3.0) ~a:0.0 ~b:5.0 ~n:9)

let test_adaptive_simpson_sin () =
  checkf 1e-9 "int_0^pi sin = 2" 2.0 (I.adaptive_simpson sin ~a:0.0 ~b:Float.pi)

let test_adaptive_simpson_gaussian () =
  checkf 1e-8 "gaussian mass" 1.0 (I.adaptive_simpson Sp.normal_pdf ~a:(-10.0) ~b:10.0)

let test_gauss_legendre_polynomial_exact () =
  (* GL-10 is exact for polynomials up to degree 19. *)
  let f x = (x ** 19.0) +. (3.0 *. (x ** 7.0)) -. x +. 2.0 in
  let exact = ((2.0 ** 20.0) /. 20.0) +. (3.0 *. (2.0 ** 8.0) /. 8.0) -. 2.0 +. 4.0 in
  checkf 1e-6 "degree 19 exact" exact (I.gauss_legendre_10 f ~a:0.0 ~b:2.0)

let test_gauss_legendre_matches_adaptive () =
  List.iter
    (fun (f, a, b) ->
      checkf 1e-8 "smooth integrand" (I.adaptive_simpson f ~a ~b) (I.gauss_legendre_10 f ~a ~b))
    [ (sin, 0.0, 1.5); ((fun x -> exp (-.x *. x)), -1.0, 1.0) ]

let test_gauss_legendre_degenerate_interval () =
  checkf 1e-12 "zero width" 0.0 (I.gauss_legendre_10 sin ~a:1.0 ~b:1.0)

let test_integrate_grid () =
  let xs = Array.init 11 (fun i -> float_of_int i) in
  let ys = Array.map (fun x -> (2.0 *. x) +. 1.0) xs in
  checkf 1e-9 "trapezoid on grid" 110.0 (I.integrate_grid xs ys)

let test_integrate_grid_invalid () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Integrate.integrate_grid: length mismatch") (fun () ->
      ignore (I.integrate_grid [| 0.0; 1.0 |] [| 0.0 |]))

let test_simpson_invalid_n () =
  Alcotest.check_raises "n = 0" (Invalid_argument "Integrate.simpson: n must be positive")
    (fun () -> ignore (I.simpson sin ~a:0.0 ~b:1.0 ~n:0))

(* --- Optimization --- *)

let test_golden_quadratic () =
  let x, fx = O.golden_section (fun x -> (x -. 3.0) ** 2.0) ~lo:0.0 ~hi:10.0 in
  checkf 1e-5 "argmin" 3.0 x;
  checkf 1e-9 "min value" 0.0 fx

let test_golden_boundary_min () =
  let x, _ = O.golden_section (fun x -> x) ~lo:2.0 ~hi:5.0 in
  checkf 1e-4 "monotone objective ends at left bound" 2.0 x

let test_grid_min () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let x, fx = O.grid_min (fun x -> Float.abs (x -. 2.9)) xs in
  checkf 1e-12 "grid argmin" 3.0 x;
  checkf 1e-12 "grid min" 0.1 fx

let test_log_grid_endpoints () =
  let g = O.log_grid ~lo:0.1 ~hi:10.0 ~n:5 in
  checkf 1e-12 "first" 0.1 g.(0);
  checkf 1e-9 "last" 10.0 g.(4);
  checkf 1e-9 "geometric middle" 1.0 g.(2)

let test_linear_grid () =
  let g = O.linear_grid ~lo:0.0 ~hi:1.0 ~n:5 in
  Alcotest.(check (array (float 1e-12))) "linear" [| 0.0; 0.25; 0.5; 0.75; 1.0 |] g

let test_refine_around_grid_min () =
  let f x = (x -. 2.7) ** 2.0 in
  let grid = O.linear_grid ~lo:0.0 ~hi:10.0 ~n:11 in
  let x, _ = O.refine_around_grid_min f grid in
  checkf 1e-4 "refined argmin" 2.7 x

let () =
  Alcotest.run "stats"
    [
      ( "array_util",
        [
          Alcotest.test_case "is_sorted" `Quick test_is_sorted;
          Alcotest.test_case "bounds basic" `Quick test_bounds_basic;
          Alcotest.test_case "count_in_range" `Quick test_count_in_range;
          QCheck_alcotest.to_alcotest prop_bounds_agree_with_scan;
          Alcotest.test_case "float_sort: specials and heap shapes" `Quick
            test_float_sort_cases;
          QCheck_alcotest.to_alcotest prop_float_sort_is_stdlib_sort;
        ] );
      ( "descriptive",
        [
          Alcotest.test_case "mean known" `Quick test_mean_known;
          Alcotest.test_case "mean empty" `Quick test_mean_empty;
          Alcotest.test_case "variance known" `Quick test_variance_known;
          Alcotest.test_case "variance constant" `Quick test_variance_constant;
          Alcotest.test_case "kahan precision" `Quick test_kahan_precision;
          Alcotest.test_case "min_max" `Quick test_min_max;
          Alcotest.test_case "skewness symmetric" `Quick test_skewness_symmetric;
          Alcotest.test_case "kurtosis" `Quick test_kurtosis_uniformish;
          Alcotest.test_case "int variants" `Quick test_int_stats;
          QCheck_alcotest.to_alcotest prop_variance_nonneg;
          QCheck_alcotest.to_alcotest prop_mean_bounds;
        ] );
      ( "quantile",
        [
          Alcotest.test_case "type-7 reference" `Quick test_quantile_type7;
          Alcotest.test_case "unsorted input" `Quick test_quantile_unsorted_input;
          Alcotest.test_case "median singleton" `Quick test_median_singleton;
          Alcotest.test_case "iqr" `Quick test_iqr;
          Alcotest.test_case "robust scale near-normal" `Quick test_robust_scale_normalish;
          Alcotest.test_case "robust scale degenerate IQR" `Quick test_robust_scale_degenerate_iqr;
          QCheck_alcotest.to_alcotest prop_quantile_monotone;
        ] );
      ( "special",
        [
          Alcotest.test_case "erf reference" `Quick test_erf_reference;
          Alcotest.test_case "erf+erfc identity" `Quick test_erfc_identity;
          Alcotest.test_case "erfc tail" `Quick test_erfc_large_tail;
          Alcotest.test_case "normal cdf reference" `Quick test_normal_cdf_reference;
          Alcotest.test_case "normal pdf reference" `Quick test_normal_pdf_reference;
          Alcotest.test_case "quantile roundtrip" `Quick test_normal_quantile_roundtrip;
          Alcotest.test_case "quantile invalid" `Quick test_normal_quantile_invalid;
          QCheck_alcotest.to_alcotest prop_cdf_monotone;
          QCheck_alcotest.to_alcotest prop_erf_odd;
        ] );
      ( "integrate",
        [
          Alcotest.test_case "trapezoid linear" `Quick test_trapezoid_linear_exact;
          Alcotest.test_case "simpson cubic" `Quick test_simpson_cubic_exact;
          Alcotest.test_case "simpson odd n" `Quick test_simpson_odd_n_rounds;
          Alcotest.test_case "adaptive sin" `Quick test_adaptive_simpson_sin;
          Alcotest.test_case "adaptive gaussian" `Quick test_adaptive_simpson_gaussian;
          Alcotest.test_case "gauss-legendre polynomial" `Quick
            test_gauss_legendre_polynomial_exact;
          Alcotest.test_case "gauss-legendre vs adaptive" `Quick
            test_gauss_legendre_matches_adaptive;
          Alcotest.test_case "gauss-legendre degenerate" `Quick
            test_gauss_legendre_degenerate_interval;
          Alcotest.test_case "grid" `Quick test_integrate_grid;
          Alcotest.test_case "grid invalid" `Quick test_integrate_grid_invalid;
          Alcotest.test_case "simpson invalid" `Quick test_simpson_invalid_n;
        ] );
      ( "optimize",
        [
          Alcotest.test_case "golden quadratic" `Quick test_golden_quadratic;
          Alcotest.test_case "golden boundary" `Quick test_golden_boundary_min;
          Alcotest.test_case "grid_min" `Quick test_grid_min;
          Alcotest.test_case "log_grid" `Quick test_log_grid_endpoints;
          Alcotest.test_case "linear_grid" `Quick test_linear_grid;
          Alcotest.test_case "refine around grid min" `Quick test_refine_around_grid_min;
        ] );
    ]
