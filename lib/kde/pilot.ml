type t = { h : float; xs : float array }

let create ~h samples =
  if h <= 0.0 || not (Float.is_finite h) then
    invalid_arg "Kde.Pilot.create: bandwidth must be positive and finite";
  if Array.length samples = 0 then invalid_arg "Kde.Pilot.create: empty sample";
  let xs = Array.copy samples in
  Stats.Array_util.float_sort xs;
  { h; xs }

let of_sorted ~h xs =
  if h <= 0.0 || not (Float.is_finite h) then
    invalid_arg "Kde.Pilot.of_sorted: bandwidth must be positive and finite";
  if Array.length xs = 0 then invalid_arg "Kde.Pilot.of_sorted: empty sample";
  { h; xs }

let bandwidth t = t.h

let cutoff = 8.0

(* Window-sum of g((x - X_i) / h) over samples within [cutoff] bandwidths. *)
let window_sum t x g =
  let r = cutoff *. t.h in
  let i0 = Stats.Array_util.float_lower_bound t.xs (x -. r) in
  let i1 = Stats.Array_util.float_upper_bound t.xs (x +. r) in
  let s = ref 0.0 in
  for i = i0 to i1 - 1 do
    s := !s +. g ((x -. t.xs.(i)) /. t.h)
  done;
  !s

let density t x =
  let n = float_of_int (Array.length t.xs) in
  window_sum t x Stats.Special.normal_pdf /. (n *. t.h)

let deriv1 t x =
  let n = float_of_int (Array.length t.xs) in
  let g u = -.u *. Stats.Special.normal_pdf u in
  window_sum t x g /. (n *. (t.h ** 2.0))

let deriv2 t x =
  let n = float_of_int (Array.length t.xs) in
  let g u = ((u *. u) -. 1.0) *. Stats.Special.normal_pdf u in
  window_sum t x g /. (n *. (t.h ** 3.0))

(* [Stats.Special.normal_pdf] written out, so that the pair loop inlines
   it: the same operations, so the same bits. *)
let[@inline always] phi u = exp (-0.5 *. u *. u) /. Stats.Special.sqrt_two_pi

(* The second and fourth derivatives of [phi], as Hermite polynomials. *)
let[@inline always] phi_d2 u = ((u *. u) -. 1.0) *. phi u

let[@inline always] phi_d4 u =
  let u2 = u *. u in
  ((u2 *. u2) -. (6.0 *. u2) +. 3.0) *. phi u

(* Double sum (1/n^2) sum_ij g((X_i - X_j) / s) over sorted samples with a
   cutoff, counting each off-diagonal pair twice via symmetry of g, where
   g is [phi_d4] when [fourth] and [phi_d2] otherwise.  A branch that
   always goes the same way picks g per pair; a closure would box every
   argument and result, O(n^2) allocations per fit. *)
let pair_sum ~fourth xs s =
  let n = Array.length xs in
  let r = cutoff *. s in
  let acc = ref (float_of_int n *. if fourth then phi_d4 0.0 else phi_d2 0.0) in
  for i = 0 to n - 1 do
    let xi = xs.(i) in
    let j = ref (i + 1) in
    while !j < n && xs.(!j) -. xi <= r do
      let u = (xs.(!j) -. xi) /. s in
      acc := !acc +. (2.0 *. if fourth then phi_d4 u else phi_d2 u);
      incr j
    done
  done;
  !acc /. float_of_int (n * n)

let roughness_deriv1 t =
  let s = Float.sqrt 2.0 *. t.h in
  (* int (f')^2 = -(1/n^2) sum phi''_s(d):  phi''_s(u) = phi(u/s)(u^2/s^2 - 1)/s^3 *)
  -.(pair_sum ~fourth:false t.xs s /. (s ** 3.0))

let roughness_deriv2 t =
  let s = Float.sqrt 2.0 *. t.h in
  (* int (f'')^2 = (1/n^2) sum phi''''_s(d) *)
  pair_sum ~fourth:true t.xs s /. (s ** 5.0)
