let sqrt_pi = 1.7724538509055159

let check_even_r r name =
  if r < 0 || r mod 2 <> 0 then invalid_arg (name ^ ": r must be even and non-negative")

(* Probabilists' Hermite polynomial He_r(x); phi^(r)(x) = (-1)^r He_r(x) phi(x),
   and for even r the sign factor is +1. *)
let hermite r x =
  let rec go n h_prev h =
    if n = r then h else go (n + 1) h ((x *. h) -. (float_of_int n *. h_prev))
  in
  if r = 0 then 1.0 else go 1 1.0 x

let phi_deriv r x = hermite r x *. Stats.Special.normal_pdf x

let rec factorial n = if n <= 1 then 1.0 else float_of_int n *. factorial (n - 1)

let psi_normal_scale ~r ~sigma =
  check_even_r r "Plug_in.psi_normal_scale";
  if sigma <= 0.0 || not (Float.is_finite sigma) then
    invalid_arg "Plug_in.psi_normal_scale: sigma must be positive and finite";
  let sign = if r / 2 mod 2 = 0 then 1.0 else -1.0 in
  sign *. factorial r /. (((2.0 *. sigma) ** float_of_int (r + 1)) *. factorial (r / 2) *. sqrt_pi)

let cutoff = 8.0

(* (1/n^2) sum_{i,j} g((X_i - X_j)/s) over a sorted array with diagonal and
   a cutoff window; g must be symmetric. *)
let pair_mean xs s g =
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

let psi_estimate_sorted ~r ~g xs =
  pair_mean xs g (phi_deriv r) /. (g ** float_of_int (r + 1))

let psi_estimate ~r ~g samples =
  check_even_r r "Plug_in.psi_estimate";
  if g <= 0.0 || not (Float.is_finite g) then
    invalid_arg "Plug_in.psi_estimate: g must be positive and finite";
  if Array.length samples = 0 then invalid_arg "Plug_in.psi_estimate: empty sample";
  let xs = Array.copy samples in
  Stats.Array_util.float_sort xs;
  psi_estimate_sorted ~r ~g xs

(* The optimal pilot bandwidth for estimating psi_r given psi_(r+2):
   g_r = (-2 phi^(r)(0) / (psi_(r+2) n))^(1/(r+3))  (Wand & Jones 3.5). *)
let stage_bandwidth ~r ~psi_next ~n =
  let num = -2.0 *. phi_deriv r 0.0 /. (psi_next *. float_of_int n) in
  if num <= 0.0 || not (Float.is_finite num) then None
  else Some (num ** (1.0 /. float_of_int (r + 3)))

(* psi_r estimated through [stages] kernel-functional stages, seeded by the
   normal-scale value of psi_(r + 2*stages). *)
let psi_staged ~sigma ~n xs ~r ~stages =
  let rec go r stages =
    if stages = 0 then psi_normal_scale ~r ~sigma
    else begin
      let psi_next = go (r + 2) (stages - 1) in
      match stage_bandwidth ~r ~psi_next ~n with
      | None -> psi_normal_scale ~r ~sigma
      | Some g -> psi_estimate_sorted ~r ~g xs
    end
  in
  go r stages

(* The sorted sample, its robust scale as [Normal_scale.scale] computes
   it, and that scale made usable as a seed (1 when it degenerates). *)
let prepared samples name =
  if Array.length samples < 2 then invalid_arg (name ^ ": need at least two samples");
  let xs = Array.copy samples in
  Stats.Array_util.float_sort xs;
  let scale = Stats.Quantile.robust_scale_sorted xs in
  let sigma = if scale > 0.0 && Float.is_finite scale then scale else 1.0 in
  (xs, scale, sigma)

let functionals ~iterations samples =
  if iterations < 0 then invalid_arg "Plug_in.functionals: iterations must be >= 0";
  let xs, _, sigma = prepared samples "Plug_in.functionals" in
  let n = Array.length xs in
  let psi2 = psi_staged ~sigma ~n xs ~r:2 ~stages:iterations in
  let psi4 = psi_staged ~sigma ~n xs ~r:4 ~stages:iterations in
  (-.psi2, psi4)

let staged_bandwidth ?(iterations = 2) ~kernel samples =
  let _, psi4 = functionals ~iterations samples in
  if psi4 <= 0.0 || not (Float.is_finite psi4) then
    (* Degenerate curvature estimate: fall back on the normal-scale rule. *)
    Normal_scale.bandwidth_of_samples ~kernel samples
  else Amise.optimal_bandwidth ~kernel ~n:(Array.length samples) ~roughness_d2:psi4

(* The paper's iteration: pilot density at the current bandwidth -> its
   [int f''^2] -> next bandwidth.  The pilot is a Gaussian KDE whose
   bandwidth tracks the Gaussian-kernel AMISE optimum, refit over one
   sorted copy of the sample.  Returns the last pilot with the sample's
   size and robust scale; the caller takes the one functional it needs
   from that pilot. *)
let last_pilot ~iterations samples =
  if iterations < 0 then invalid_arg "Plug_in.bandwidth: iterations must be >= 0";
  let xs, scale, sigma = prepared samples "Plug_in.bandwidth" in
  let n = Array.length xs in
  let pilot =
    ref
      (Kde.Pilot.of_sorted
         ~h:(Normal_scale.bandwidth ~kernel:Kernels.Kernel.Gaussian ~n ~scale:sigma)
         xs)
  in
  for _ = 1 to iterations do
    let psi4 = Kde.Pilot.roughness_deriv2 !pilot in
    if psi4 > 0.0 && Float.is_finite psi4 then
      pilot :=
        Kde.Pilot.of_sorted
          ~h:(Amise.optimal_bandwidth ~kernel:Kernels.Kernel.Gaussian ~n ~roughness_d2:psi4)
          xs
  done;
  (!pilot, n, scale)

let bandwidth ?(iterations = 2) ~kernel samples =
  if iterations = 0 then Normal_scale.bandwidth_of_samples ~kernel samples
  else begin
    let pilot, n, scale = last_pilot ~iterations samples in
    let psi4 = Kde.Pilot.roughness_deriv2 pilot in
    if psi4 <= 0.0 || not (Float.is_finite psi4) then Normal_scale.bandwidth ~kernel ~n ~scale
    else Amise.optimal_bandwidth ~kernel ~n ~roughness_d2:psi4
  end

let bin_width ?(iterations = 2) samples =
  if iterations = 0 then Normal_scale.bin_width_of_samples samples
  else begin
    let pilot, n, scale = last_pilot ~iterations samples in
    let d1 = Kde.Pilot.roughness_deriv1 pilot in
    if d1 <= 0.0 || not (Float.is_finite d1) then Normal_scale.bin_width ~n ~scale
    else Amise.optimal_bin_width ~n ~roughness_d1:d1
  end

let bin_count ?(iterations = 2) ~domain:(lo, hi) samples =
  if lo >= hi then invalid_arg "Plug_in.bin_count: empty domain";
  let h = bin_width ~iterations samples in
  Int.max 1 (int_of_float (Float.ceil ((hi -. lo) /. h)))
