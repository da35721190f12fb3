module K = Kernels.Kernel
module B = Kernels.Boundary

type boundary_policy =
  | No_treatment
  | Reflection
  | Boundary_kernels

let boundary_policy_name = function
  | No_treatment -> "none"
  | Reflection -> "reflection"
  | Boundary_kernels -> "boundary-kernels"

type t = {
  kernel : K.t;
  boundary : boundary_policy;
  h : float;
  lo : float;
  hi : float;
  xs : float array; (* sorted samples *)
  refl_left : float array; (* mirrored samples below lo, sorted; Reflection only *)
  refl_right : float array; (* mirrored samples above hi, sorted; Reflection only *)
}

let create ?(kernel = K.Epanechnikov) ?(boundary = No_treatment) ~domain:(lo, hi) ~h samples =
  if h <= 0.0 || not (Float.is_finite h) then
    invalid_arg "Kde.Estimator.create: bandwidth must be positive and finite";
  if lo >= hi then invalid_arg "Kde.Estimator.create: empty domain";
  if Array.length samples = 0 then invalid_arg "Kde.Estimator.create: empty sample";
  (match boundary with
  | Boundary_kernels ->
    if K.support_radius kernel <> Some 1.0 then
      invalid_arg
        "Kde.Estimator.create: boundary kernels require a unit-support kernel (Epanechnikov \
         family)";
    if 2.0 *. h > hi -. lo then
      invalid_arg "Kde.Estimator.create: boundary kernels require 2h <= domain width"
  | No_treatment | Reflection -> ());
  let xs = Array.map (fun x -> Float.max lo (Float.min hi x)) samples in
  Stats.Array_util.float_sort xs;
  let rh = K.effective_radius kernel *. h in
  let refl_left, refl_right =
    match boundary with
    | Reflection ->
      let left =
        Array.of_seq
          (Seq.filter (fun x -> x <= lo +. rh) (Array.to_seq xs))
      in
      let right =
        Array.of_seq
          (Seq.filter (fun x -> x >= hi -. rh) (Array.to_seq xs))
      in
      let ml = Array.map (fun x -> (2.0 *. lo) -. x) left in
      let mr = Array.map (fun x -> (2.0 *. hi) -. x) right in
      Stats.Array_util.float_sort ml;
      Stats.Array_util.float_sort mr;
      (ml, mr)
    | No_treatment | Boundary_kernels -> ([||], [||])
  in
  { kernel; boundary; h; lo; hi; xs; refl_left; refl_right }

let kernel t = t.kernel
let boundary t = t.boundary
let bandwidth t = t.h
let domain t = (t.lo, t.hi)
let sample_size t = Array.length t.xs
let samples t = t.xs
let reflections t = (t.refl_left, t.refl_right)

(* Unnormalized sum of F((b - X)/h) - F((a - X)/h) over a sorted array,
   touching only the O(k) samples whose kernel overlaps [a, b]. *)
let base_sum t xs a b =
  let h = t.h in
  let rh = K.effective_radius t.kernel *. h in
  let cdf = K.cdf t.kernel in
  let partial acc i0 i1 =
    let s = ref acc in
    for i = i0 to i1 - 1 do
      let x = xs.(i) in
      s := !s +. (cdf ((b -. x) /. h) -. cdf ((a -. x) /. h))
    done;
    !s
  in
  let i0 = Stats.Array_util.float_lower_bound xs (a -. rh) in
  let i1 = Stats.Array_util.float_upper_bound xs (b +. rh) in
  if a +. rh <= b -. rh then begin
    let j0 = Stats.Array_util.float_lower_bound xs (a +. rh) in
    let j1 = Stats.Array_util.float_upper_bound xs (b -. rh) in
    let full = float_of_int (Int.max 0 (j1 - j0)) in
    partial (partial full i0 j0) j1 i1
  end
  else partial 0.0 i0 i1

(* Same sum computed by the literal Theta(n) scan of Algorithm 1. *)
let scan_sum t xs a b =
  let h = t.h in
  let cdf = K.cdf t.kernel in
  let s = ref 0.0 in
  for i = 0 to Array.length xs - 1 do
    let x = xs.(i) in
    s := !s +. (cdf ((b -. x) /. h) -. cdf ((a -. x) /. h))
  done;
  !s

(* Density of the plain (untreated) estimator at x over a given array. *)
let plain_density_over t xs x =
  let h = t.h in
  let rh = K.effective_radius t.kernel *. h in
  let i0 = Stats.Array_util.float_lower_bound xs (x -. rh) in
  let i1 = Stats.Array_util.float_upper_bound xs (x +. rh) in
  let s = ref 0.0 in
  for i = i0 to i1 - 1 do
    s := !s +. K.eval t.kernel ((x -. xs.(i)) /. h)
  done;
  !s /. (float_of_int (Array.length t.xs) *. h)

(* Boundary-kernel density: Simonoff-Dong kernels within h of a boundary,
   Epanechnikov elsewhere. *)
let boundary_kernel_density t x =
  let h = t.h in
  let n = float_of_int (Array.length t.xs) in
  if x < t.lo +. h then begin
    let q = (x -. t.lo) /. h in
    let i0 = Stats.Array_util.float_lower_bound t.xs (x -. (q *. h)) in
    let i1 = Stats.Array_util.float_upper_bound t.xs (x +. h) in
    let s = ref 0.0 in
    for i = i0 to i1 - 1 do
      s := !s +. B.left ~u:((x -. t.xs.(i)) /. h) ~q
    done;
    !s /. (n *. h)
  end
  else if x > t.hi -. h then begin
    let q = (t.hi -. x) /. h in
    let i0 = Stats.Array_util.float_lower_bound t.xs (x -. h) in
    let i1 = Stats.Array_util.float_upper_bound t.xs (x +. (q *. h)) in
    let s = ref 0.0 in
    for i = i0 to i1 - 1 do
      s := !s +. B.right ~u:((x -. t.xs.(i)) /. h) ~q
    done;
    !s /. (n *. h)
  end
  else plain_density_over t t.xs x

let density t x =
  if x < t.lo || x > t.hi then 0.0
  else
    match t.boundary with
    | No_treatment -> plain_density_over t t.xs x
    | Reflection ->
      plain_density_over t t.xs x
      +. plain_density_over t t.refl_left x
      +. plain_density_over t t.refl_right x
    | Boundary_kernels -> boundary_kernel_density t x

let clamp01 v = Float.max 0.0 (Float.min 1.0 v)

(* Selectivity under the boundary-kernel policy: closed form in the
   interior, Simpson over the boundary strips where the kernel family
   depends on the estimation point. *)
let boundary_kernel_selectivity ~sum t a b =
  let h = t.h in
  let left_edge = t.lo +. h and right_edge = t.hi -. h in
  (* The strip integrand is piecewise rational in x (smooth between the
     points where samples enter or leave the kernel support), so one
     10-point Gauss-Legendre panel per strip carries a ~1e-4 absolute
     error from the kinks — three orders of magnitude below the
     estimation error itself, at a tenth of the cost of the composite
     Simpson rule this replaced. *)
  let piece_numeric lo hi =
    if hi -. lo <= 0.0 then 0.0
    else Stats.Integrate.gauss_legendre_10 (fun x -> boundary_kernel_density t x) ~a:lo ~b:hi
  in
  let mid_lo = Float.max a left_edge and mid_hi = Float.min b right_edge in
  let mid =
    if mid_lo < mid_hi then sum t t.xs mid_lo mid_hi /. float_of_int (Array.length t.xs)
    else 0.0
  in
  let left = if a < left_edge then piece_numeric a (Float.min b left_edge) else 0.0 in
  let right = if b > right_edge then piece_numeric (Float.max a right_edge) b else 0.0 in
  left +. mid +. right

let selectivity_with ~sum t ~a ~b =
  if a > b then 0.0
  else begin
    let a = Float.max t.lo a and b = Float.min t.hi b in
    if a > b then 0.0
    else begin
      let n = float_of_int (Array.length t.xs) in
      let v =
        match t.boundary with
        | No_treatment -> sum t t.xs a b /. n
        | Reflection ->
          (sum t t.xs a b +. sum t t.refl_left a b +. sum t t.refl_right a b) /. n
        | Boundary_kernels -> boundary_kernel_selectivity ~sum t a b
      in
      clamp01 v
    end
  end

let selectivity t ~a ~b = selectivity_with ~sum:base_sum t ~a ~b

let selectivity_scan t ~a ~b = selectivity_with ~sum:scan_sum t ~a ~b

let mass t = selectivity t ~a:t.lo ~b:t.hi
