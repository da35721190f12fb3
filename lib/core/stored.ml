type t = {
  lo : float;
  hi : float;
  weights : float array; (* per-cell selectivity mass *)
  prefix : float array;
      (* prefix.(i) = weights.(0) + ... + weights.(i - 1), length cells + 1;
         derived on construction, never serialized *)
}

let make ~lo ~hi weights =
  let k = Array.length weights in
  let prefix = Array.make (k + 1) 0.0 in
  for i = 0 to k - 1 do
    prefix.(i + 1) <- prefix.(i) +. weights.(i)
  done;
  { lo; hi; weights; prefix }

(* [who] keeps validation messages named after the entry point the
   caller actually used. *)
let of_fn_named who ?(cells = 256) ~domain:(lo, hi) f =
  if cells <= 0 then invalid_arg (who ^ ": cells must be positive");
  if lo >= hi then invalid_arg (who ^ ": empty domain");
  let w = (hi -. lo) /. float_of_int cells in
  let weights =
    Array.init cells (fun i ->
        let a = lo +. (float_of_int i *. w) in
        Float.max 0.0 (f ~a ~b:(a +. w)))
  in
  make ~lo ~hi weights

let of_fn ?cells ~domain f = of_fn_named "Stored.of_fn" ?cells ~domain f

let of_estimator ?cells ~domain est =
  of_fn_named "Stored.of_estimator" ?cells ~domain (fun ~a ~b ->
      Estimator.selectivity est ~a ~b)

let of_sample ?cells ?(spec = Estimator.kernel_defaults) ~domain sample =
  of_estimator ?cells ~domain (Estimator.build spec ~domain sample)

let cells t = Array.length t.weights
let domain t = (t.lo, t.hi)

(* Mass of cell [i] inside [qa, qb] under the uniform-within-cell
   assumption. *)
let[@inline always] cell_part ~lo ~w weights i qa qb =
  let c_lo = lo +. (float_of_int i *. w) in
  let c_hi = c_lo +. w in
  let overlap = Float.min qb c_hi -. Float.max qa c_lo in
  if overlap > 0.0 then Array.unsafe_get weights i *. overlap /. w else 0.0

(* The histogram range formula over [k] cells of width [w] from [lo]:
   partial first cell + the whole cells between, read as one prefix-mass
   difference + partial last cell, so the cost does not depend on how
   many cells [Q(qa, qb)] covers.  Cell indices are clamped in float
   space (infinite or huge bounds hit the edge cells, not
   [int_of_float]'s unspecified result); inverted and NaN bounds are
   empty.  Inlined into both probes below, so neither boxes its float;
   the summary's fields come in as arguments so the batch probe reads
   them, and divides out the cell width, once per call. *)
let[@inline always] probe ~lo ~w ~k ~weights ~prefix qa qb =
  let top = float_of_int (k - 1) in
  let fa = Float.floor ((qa -. lo) /. w) and fb = Float.floor ((qb -. lo) /. w) in
  if not (qa <= qb && fa <= top && fb >= 0.0) then 0.0
  else begin
    let first = if fa < 0.0 then 0 else int_of_float fa in
    let last = if fb > top then k - 1 else int_of_float fb in
    let acc =
      if first = last then cell_part ~lo ~w weights first qa qb
      else
        cell_part ~lo ~w weights first qa qb
        +. (Array.unsafe_get prefix last -. Array.unsafe_get prefix (first + 1))
        +. cell_part ~lo ~w weights last qa qb
    in
    Float.max 0.0 (Float.min 1.0 acc)
  end

let cell_width t = (t.hi -. t.lo) /. float_of_int (Array.length t.weights)

let selectivity t ~a ~b =
  probe ~lo:t.lo ~w:(cell_width t) ~k:(Array.length t.weights) ~weights:t.weights
    ~prefix:t.prefix a b

let selectivity_into t ~pos ~len ~a ~b ~out =
  if pos < 0 || len < 0 then invalid_arg "Stored.selectivity_into: negative range";
  if pos + len > Array.length a || pos + len > Array.length b || pos + len > Array.length out
  then invalid_arg "Stored.selectivity_into: query arrays shorter than pos + len";
  let lo = t.lo and w = cell_width t and k = Array.length t.weights in
  let weights = t.weights and prefix = t.prefix in
  for qi = pos to pos + len - 1 do
    Array.unsafe_set out qi
      (probe ~lo ~w ~k ~weights ~prefix (Array.unsafe_get a qi) (Array.unsafe_get b qi))
  done

let to_string t =
  let buf = Buffer.create (16 * Array.length t.weights) in
  Buffer.add_string buf "selest-stored v1\n";
  Buffer.add_string buf (Printf.sprintf "domain %.17g %.17g\n" t.lo t.hi);
  Buffer.add_string buf (Printf.sprintf "cells %d\n" (Array.length t.weights));
  Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf "%.17g\n" v)) t.weights;
  Buffer.contents buf

let magic_range = "selest-stored v1"

(* Monomorphic scans: a polymorphic [Array.exists] would box every
   element it reads. *)
let all_finite (a : float array) =
  let ok = ref true in
  for i = 0 to Array.length a - 1 do
    if not (Float.is_finite (Array.unsafe_get a i)) then ok := false
  done;
  !ok

let all_nonneg_finite (a : float array) =
  let ok = ref true in
  for i = 0 to Array.length a - 1 do
    let v = Array.unsafe_get a i in
    if not (v >= 0.0 && Float.is_finite v) then ok := false
  done;
  !ok

(* What makes a range summary valid, checked in one place: the text and
   binary decoders both build through here, so they cannot disagree on
   which field values they accept. *)
let range_checked who ~lo ~hi weights =
  if not (lo < hi) then Error (who ^ ": malformed domain bounds")
  else if Array.length weights = 0 then Error (who ^ ": malformed cell count")
  else if not (all_nonneg_finite weights) then
    Error (who ^ ": weights must be non-negative and finite")
  else Ok (make ~lo ~hi weights)

(* Line-level helpers for the text parsers: every parse is total —
   malformed input maps to [Error], never an exception. *)
let parse_pair who ~key of_string line =
  match String.split_on_char ' ' (String.trim line) with
  | [ k; a; b ] when k = key -> (
    match (of_string a, of_string b) with
    | Some x, Some y -> Ok (x, y)
    | _ -> Error (Printf.sprintf "%s: malformed %s line" who key))
  | _ -> Error (Printf.sprintf "%s: missing %s line" who key)

let parse_floats who rest =
  let values =
    List.filter_map
      (fun line ->
        let line = String.trim line in
        if line = "" then None else Some (float_of_string_opt line))
      rest
  in
  if List.exists (fun v -> v = None) values then
    Error (Printf.sprintf "%s: malformed value" who)
  else Ok (Array.of_list (List.filter_map Fun.id values))

let ( let* ) = Result.bind

let of_string s =
  let who = "Stored.of_string" in
  match String.split_on_char '\n' s with
  | magic :: domain_line :: cells_line :: rest when String.trim magic = magic_range ->
    let* lo, hi = parse_pair who ~key:"domain" float_of_string_opt domain_line in
    let* k =
      match String.split_on_char ' ' (String.trim cells_line) with
      | [ "cells"; n ] -> (
        match int_of_string_opt n with
        | Some k when k >= 0 -> Ok k
        | _ -> Error (who ^ ": malformed cell count"))
      | _ -> Error (who ^ ": missing cells line")
    in
    let* weights = parse_floats who rest in
    if Array.length weights <> k then
      Error (Printf.sprintf "%s: expected %d weights, found %d" who k (Array.length weights))
    else range_checked who ~lo ~hi weights
  | _ -> Error (who ^ ": missing header")

(* ---------------- rectangle (2-D grid) summaries ---------------- *)

type rect = {
  rx_lo : float;
  ry_lo : float;
  rwx : float; (* cell width along x *)
  rwy : float;
  rbins_x : int;
  rbins_y : int;
  rcounts : float array; (* row-major: cell (i, j) at [j * bins_x + i] *)
  rtotal : float;
}

(* Closed-rectangle-on-the-integer-grid canonicalization: the one
   semantics every 2-D estimator agrees on.  A query [x_lo, x_hi] x
   [y_lo, y_hi] means the set of integer points it contains; the
   continuous rectangle actually evaluated is the union of their unit
   cells, [ceil x_lo - 0.5, floor x_hi + 0.5] per axis.  Queries already
   phrased on half-integer cell edges (the workload generator's form) map
   to themselves, so this is invisible to them; a degenerate [a, a] query
   becomes the unit cell around [a], matching the inclusive exact count.
   [None] when no integer point lies inside (including inverted and NaN
   bounds). *)
let canonical_rect ~x_lo ~x_hi ~y_lo ~y_hi =
  if
    Float.is_nan x_lo || Float.is_nan x_hi || Float.is_nan y_lo || Float.is_nan y_hi
  then None
  else begin
    let ix_lo = Float.ceil x_lo and ix_hi = Float.floor x_hi in
    let iy_lo = Float.ceil y_lo and iy_hi = Float.floor y_hi in
    if ix_lo > ix_hi || iy_lo > iy_hi then None
    else Some (ix_lo -. 0.5, ix_hi +. 0.5, iy_lo -. 0.5, iy_hi +. 0.5)
  end

(* What makes a rect summary valid, over the fields answers read (the
   text decoder derives the cell widths from its domain lines first).
   The counts-length test is division-based so huge bin counts cannot
   overflow their product into a match. *)
let rect_checked who ~x_lo ~y_lo ~wx ~wy ~bins_x ~bins_y ~total counts =
  let n = Array.length counts in
  let axis_ok lo w bins =
    Float.is_finite lo && w > 0.0 && Float.is_finite (lo +. (w *. float_of_int bins))
  in
  if bins_x <= 0 || bins_y <= 0 then Error (who ^ ": bins must be positive")
  else if not (bins_x <= n && n mod bins_x = 0 && n / bins_x = bins_y) then
    Error (Printf.sprintf "%s: expected %d x %d counts, found %d" who bins_x bins_y n)
  else if not (axis_ok x_lo wx bins_x) then Error (who ^ ": malformed domain_x bounds")
  else if not (axis_ok y_lo wy bins_y) then Error (who ^ ": malformed domain_y bounds")
  else if not (total > 0.0 && Float.is_finite total) then
    Error (who ^ ": total must be positive and finite")
  else if not (all_nonneg_finite counts) then
    Error (who ^ ": counts must be non-negative and finite")
  else
    Ok
      {
        rx_lo = x_lo;
        ry_lo = y_lo;
        rwx = wx;
        rwy = wy;
        rbins_x = bins_x;
        rbins_y = bins_y;
        rcounts = counts;
        rtotal = total;
      }

let rect_of_points ~domain_x:(x_lo, x_hi) ~domain_y:(y_lo, y_hi) ~bins_x ~bins_y points =
  if x_lo >= x_hi || y_lo >= y_hi then invalid_arg "Stored.rect_of_points: empty domain";
  if bins_x <= 0 || bins_y <= 0 then
    invalid_arg "Stored.rect_of_points: bins must be positive";
  if Array.length points = 0 then invalid_arg "Stored.rect_of_points: empty sample";
  let wx = (x_hi -. x_lo) /. float_of_int bins_x in
  let wy = (y_hi -. y_lo) /. float_of_int bins_y in
  let counts = Array.make (bins_x * bins_y) 0.0 in
  (* Clamp in float space before the int conversion: a point far outside
     the domain (or infinite) must land in an edge cell, not in
     [int_of_float]'s unspecified result. *)
  let cell_index lo w bins v =
    int_of_float
      (Float.max 0.0 (Float.min (float_of_int (bins - 1)) (Float.floor ((v -. lo) /. w))))
  in
  Array.iter
    (fun (x, y) ->
      let i = cell_index x_lo wx bins_x x in
      let j = cell_index y_lo wy bins_y y in
      counts.((j * bins_x) + i) <- counts.((j * bins_x) + i) +. 1.0)
    points;
  {
    rx_lo = x_lo;
    ry_lo = y_lo;
    rwx = wx;
    rwy = wy;
    rbins_x = bins_x;
    rbins_y = bins_y;
    rcounts = counts;
    rtotal = float_of_int (Array.length points);
  }

let rect_of_fn ~domain_x:(x_lo, x_hi) ~domain_y:(y_lo, y_hi) ~bins_x ~bins_y f =
  if x_lo >= x_hi || y_lo >= y_hi then invalid_arg "Stored.rect_of_fn: empty domain";
  if bins_x <= 0 || bins_y <= 0 then invalid_arg "Stored.rect_of_fn: bins must be positive";
  let wx = (x_hi -. x_lo) /. float_of_int bins_x in
  let wy = (y_hi -. y_lo) /. float_of_int bins_y in
  let counts =
    Array.init (bins_x * bins_y) (fun k ->
        let i = k mod bins_x and j = k / bins_x in
        let cx_lo = x_lo +. (float_of_int i *. wx) in
        let cy_lo = y_lo +. (float_of_int j *. wy) in
        Float.max 0.0
          (f ~x_lo:cx_lo ~x_hi:(cx_lo +. wx) ~y_lo:cy_lo ~y_hi:(cy_lo +. wy)))
  in
  {
    rx_lo = x_lo;
    ry_lo = y_lo;
    rwx = wx;
    rwy = wy;
    rbins_x = bins_x;
    rbins_y = bins_y;
    rcounts = counts;
    rtotal = 1.0;
  }

let rect_bins r = (r.rbins_x, r.rbins_y)

let rect_domains r =
  ( (r.rx_lo, r.rx_lo +. (r.rwx *. float_of_int r.rbins_x)),
    (r.ry_lo, r.ry_lo +. (r.rwy *. float_of_int r.rbins_y)) )

(* Overlap of [lo, hi] with cell [k] along an axis, as a fraction of the
   cell width (the Hist2d arithmetic, verbatim — Multidim.Hist2d delegates
   here, which is what makes served rectangles bit-identical to direct
   library calls). *)
let overlap_fraction ~origin ~w k lo hi =
  let c_lo = origin +. (float_of_int k *. w) in
  let c_hi = c_lo +. w in
  let o = Float.min hi c_hi -. Float.max lo c_lo in
  if o <= 0.0 then 0.0 else o /. w

let rect_selectivity r ~x_lo ~x_hi ~y_lo ~y_hi =
  match canonical_rect ~x_lo ~x_hi ~y_lo ~y_hi with
  | None -> 0.0
  | Some (x_lo, x_hi, y_lo, y_hi) ->
    (* Cell index bounds, clamped in float space so infinite canonical
       bounds (e.g. an unbounded query) hit the edge cells rather than
       [int_of_float]'s unspecified result. *)
    let clamp_index ~origin ~w ~bins v =
      int_of_float
        (Float.max 0.0
           (Float.min (float_of_int (bins - 1)) (Float.floor ((v -. origin) /. w))))
    in
    let i0 = clamp_index ~origin:r.rx_lo ~w:r.rwx ~bins:r.rbins_x x_lo in
    let i1 = clamp_index ~origin:r.rx_lo ~w:r.rwx ~bins:r.rbins_x x_hi in
    let j0 = clamp_index ~origin:r.ry_lo ~w:r.rwy ~bins:r.rbins_y y_lo in
    let j1 = clamp_index ~origin:r.ry_lo ~w:r.rwy ~bins:r.rbins_y y_hi in
    let acc = ref 0.0 in
    for j = j0 to j1 do
      let fy = overlap_fraction ~origin:r.ry_lo ~w:r.rwy j y_lo y_hi in
      if fy > 0.0 then
        for i = i0 to i1 do
          let fx = overlap_fraction ~origin:r.rx_lo ~w:r.rwx i x_lo x_hi in
          if fx > 0.0 then acc := !acc +. (r.rcounts.((j * r.rbins_x) + i) *. fx *. fy)
        done
    done;
    Float.max 0.0 (Float.min 1.0 (!acc /. r.rtotal))

let rect_density r x y =
  let i = Float.floor ((x -. r.rx_lo) /. r.rwx) in
  let j = Float.floor ((y -. r.ry_lo) /. r.rwy) in
  if
    (not (i >= 0.0 && i <= float_of_int (r.rbins_x - 1)))
    || not (j >= 0.0 && j <= float_of_int (r.rbins_y - 1))
  then 0.0
  else
    r.rcounts.((int_of_float j * r.rbins_x) + int_of_float i)
    /. (r.rtotal *. r.rwx *. r.rwy)

let magic_rect = "selest-stored-rect v1"

let rect_to_string r =
  let (x_lo, x_hi), (y_lo, y_hi) = rect_domains r in
  let buf = Buffer.create (16 * Array.length r.rcounts) in
  Buffer.add_string buf (magic_rect ^ "\n");
  Buffer.add_string buf (Printf.sprintf "domain_x %.17g %.17g\n" x_lo x_hi);
  Buffer.add_string buf (Printf.sprintf "domain_y %.17g %.17g\n" y_lo y_hi);
  Buffer.add_string buf (Printf.sprintf "bins %d %d\n" r.rbins_x r.rbins_y);
  Buffer.add_string buf (Printf.sprintf "total %.17g\n" r.rtotal);
  Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf "%.17g\n" v)) r.rcounts;
  Buffer.contents buf

(* The text form stores each axis's domain ends, so the cell widths are
   re-derived as [(hi - lo) / bins], which can land one ulp away from
   the widths the summary was built with.  The binary form
   ({!any_to_binary}) stores the widths themselves. *)
let rect_of_string s =
  let who = "Stored.rect_of_string" in
  match String.split_on_char '\n' s with
  | magic :: dx :: dy :: bins_line :: total_line :: rest when String.trim magic = magic_rect
    ->
    let* x_lo, x_hi = parse_pair who ~key:"domain_x" float_of_string_opt dx in
    let* y_lo, y_hi = parse_pair who ~key:"domain_y" float_of_string_opt dy in
    let* bins_x, bins_y = parse_pair who ~key:"bins" int_of_string_opt bins_line in
    let* total =
      match String.split_on_char ' ' (String.trim total_line) with
      | [ "total"; v ] -> (
        match float_of_string_opt v with
        | Some t -> Ok t
        | None -> Error (who ^ ": malformed total line"))
      | _ -> Error (who ^ ": missing total line")
    in
    let* counts = parse_floats who rest in
    rect_checked who ~x_lo ~y_lo
      ~wx:((x_hi -. x_lo) /. float_of_int bins_x)
      ~wy:((y_hi -. y_lo) /. float_of_int bins_y)
      ~bins_x ~bins_y ~total counts
  | _ -> Error (who ^ ": missing header")

(* ---------------- join summaries ---------------- *)

type join_pred = Join_eq | Join_lt | Join_le

let join_pred_to_string = function Join_eq -> "eq" | Join_lt -> "lt" | Join_le -> "le"

let join_pred_of_string = function
  | "eq" -> Ok Join_eq
  | "lt" -> Ok Join_lt
  | "le" -> Ok Join_le
  | s -> Error (Printf.sprintf "unknown join predicate %S (expected eq, lt or le)" s)

type join = {
  j_lo : float;
  j_hi : float; (* shared attribute domain *)
  j_n_r : int;
  j_n_s : int; (* relation sizes *)
  j_bounds_r : float array; (* strictly ascending, length buckets + 1 *)
  j_mass_r : float array; (* per-bucket probability mass, length buckets *)
  j_bounds_s : float array;
  j_mass_s : float array;
  j_sample_r : float array; (* retained build samples (sorted), for rebuilds *)
  j_sample_s : float array;
  j_suffix_s : float array;
      (* suffix_s.(k) = mass_s.(k) + ... + mass_s.(buckets - 1), length
         buckets + 1; derived on construction, never serialized *)
}

let make_join ~lo ~hi ~n_r ~n_s ~bounds_r ~mass_r ~bounds_s ~mass_s ~sample_r ~sample_s =
  let ks = Array.length mass_s in
  let suffix_s = Array.make (ks + 1) 0.0 in
  for k = ks - 1 downto 0 do
    suffix_s.(k) <- suffix_s.(k + 1) +. mass_s.(k)
  done;
  {
    j_lo = lo;
    j_hi = hi;
    j_n_r = n_r;
    j_n_s = n_s;
    j_bounds_r = bounds_r;
    j_mass_r = mass_r;
    j_bounds_s = bounds_s;
    j_mass_s = mass_s;
    j_sample_r = sample_r;
    j_sample_s = sample_s;
    j_suffix_s = suffix_s;
  }

(* Equi-depth bucketing of a sorted sample: bucket boundaries at the
   k-quantile midpoints, then zero-width buckets merged so bounds are
   strictly ascending and per-bucket densities are defined. *)
let edh_of_sorted ~domain:(lo, hi) ~buckets sorted =
  let n = Array.length sorted in
  let k = Int.min buckets n in
  let bounds = ref [ lo ] and masses = ref [] in
  let prev_pos = ref 0 and prev_bound = ref lo in
  for i = 1 to k - 1 do
    let pos = i * n / k in
    if pos > !prev_pos then begin
      let b = 0.5 *. (sorted.(pos - 1) +. sorted.(pos)) in
      if b > !prev_bound && b < hi then begin
        bounds := b :: !bounds;
        masses := (float_of_int (pos - !prev_pos) /. float_of_int n) :: !masses;
        prev_pos := pos;
        prev_bound := b
      end
    end
  done;
  bounds := hi :: !bounds;
  masses := (float_of_int (n - !prev_pos) /. float_of_int n) :: !masses;
  (Array.of_list (List.rev !bounds), Array.of_list (List.rev !masses))

let join_of_samples ~domain:(lo, hi) ~buckets ~n_r ~n_s sample_r sample_s =
  if lo >= hi then invalid_arg "Stored.join_of_samples: empty domain";
  if buckets <= 0 then invalid_arg "Stored.join_of_samples: buckets must be positive";
  if n_r <= 0 || n_s <= 0 then
    invalid_arg "Stored.join_of_samples: relation sizes must be positive";
  if Array.length sample_r = 0 || Array.length sample_s = 0 then
    invalid_arg "Stored.join_of_samples: empty sample";
  let prep sample =
    if Array.exists (fun v -> not (Float.is_finite v)) sample then
      invalid_arg "Stored.join_of_samples: sample values must be finite";
    let s = Array.map (fun v -> Float.max lo (Float.min hi v)) sample in
    Array.sort Float.compare s;
    s
  in
  let sr = prep sample_r and ss = prep sample_s in
  let bounds_r, mass_r = edh_of_sorted ~domain:(lo, hi) ~buckets sr in
  let bounds_s, mass_s = edh_of_sorted ~domain:(lo, hi) ~buckets ss in
  make_join ~lo ~hi ~n_r ~n_s ~bounds_r ~mass_r ~bounds_s ~mass_s ~sample_r:sr ~sample_s:ss

let join_domain j = (j.j_lo, j.j_hi)
let join_sizes j = (j.j_n_r, j.j_n_s)
let join_buckets j = (Array.length j.j_mass_r, Array.length j.j_mass_s)
let join_samples j = (j.j_sample_r, j.j_sample_s)

(* P(x < y) for x ~ U(a1, b1), y ~ U(a2, b2): integrate the uniform CDF of
   x over y's bucket.  With c1/c2 the clamp of [a1, b1] into [a2, b2],
   the integral splits into the ramp part and the saturated tail. *)
let[@inline always] prob_lt ~a1 ~b1 ~a2 ~b2 =
  if b1 <= a2 then 1.0
  else if b2 <= a1 then 0.0
  else begin
    let c1 = Float.max a2 (Float.min b2 a1) and c2 = Float.max a2 (Float.min b2 b1) in
    let ramp = (((c2 -. a1) *. (c2 -. a1)) -. ((c1 -. a1) *. (c1 -. a1)))
               /. (2.0 *. (b1 -. a1)) in
    (ramp +. (b2 -. c2)) /. (b2 -. a2)
  end

(* Both sweeps below merge the two ascending bound arrays: [k0] is the
   first S bucket that ends above the current R bucket's lower bound.
   R buckets arrive in ascending order, so [k0] only moves forward, and
   the S buckets that straddle R bucket [i] are [k0] up to the first one
   starting at or above its upper bound.  Every pair outside that run
   has no overlap, so a sweep is O(k_R + k_S) and allocates nothing. *)

(* N_R N_S int f_R f_S: the density-product equi-join formula over the
   overlapping bucket pairs (each integer value occupying a unit cell,
   as in Equijoin.from_densities).  Pairs are visited R-major in
   ascending S order, the order of the full pair grid, so the sum is the
   grid's sum bit for bit. *)
let join_eq_size j =
  let kr = Array.length j.j_mass_r and ks = Array.length j.j_mass_s in
  let bs = j.j_bounds_s in
  let acc = ref 0.0 and k0 = ref 0 in
  for i = 0 to kr - 1 do
    let a1 = j.j_bounds_r.(i) and b1 = j.j_bounds_r.(i + 1) in
    while !k0 < ks && bs.(!k0 + 1) <= a1 do
      incr k0
    done;
    let dr = j.j_mass_r.(i) /. (b1 -. a1) in
    if dr > 0.0 then begin
      let k = ref !k0 in
      while !k < ks && bs.(!k) < b1 do
        let a2 = bs.(!k) and b2 = bs.(!k + 1) in
        let overlap = Float.min b1 b2 -. Float.max a1 a2 in
        if overlap > 0.0 then
          acc := !acc +. (dr *. (j.j_mass_s.(!k) /. (b2 -. a2)) *. overlap);
        incr k
      done
    end
  done;
  float_of_int j.j_n_r *. float_of_int j.j_n_s *. !acc

(* The histogram-pair sum for R.A < S.B, sum_ik m_R(i) m_S(k) P(x < y):
   for each R bucket, the straddling S buckets take the closed-form
   P(x < y), the S buckets wholly above it (P = 1) are one suffix-mass
   read, and those wholly below (P = 0) are never visited. *)
let join_lt_size j =
  let kr = Array.length j.j_mass_r and ks = Array.length j.j_mass_s in
  let bs = j.j_bounds_s and ms = j.j_mass_s in
  let acc = ref 0.0 and k0 = ref 0 in
  for i = 0 to kr - 1 do
    let a1 = j.j_bounds_r.(i) and b1 = j.j_bounds_r.(i + 1) in
    while !k0 < ks && bs.(!k0 + 1) <= a1 do
      incr k0
    done;
    let mr = j.j_mass_r.(i) in
    if mr > 0.0 then begin
      let part = ref 0.0 and k = ref !k0 in
      while !k < ks && bs.(!k) < b1 do
        part := !part +. (ms.(!k) *. prob_lt ~a1 ~b1 ~a2:bs.(!k) ~b2:bs.(!k + 1));
        incr k
      done;
      acc := !acc +. (mr *. (!part +. j.j_suffix_s.(!k)))
    end
  done;
  float_of_int j.j_n_r *. float_of_int j.j_n_s *. !acc

let join_estimate j ~pred =
  match pred with
  | Join_eq -> join_eq_size j
  | Join_lt -> join_lt_size j
  | Join_le -> join_lt_size j +. join_eq_size j

let magic_join = "selest-stored-join v1"

let join_to_string j =
  let buf =
    Buffer.create
      (16 * (Array.length j.j_bounds_r + Array.length j.j_bounds_s
            + Array.length j.j_sample_r + Array.length j.j_sample_s))
  in
  Buffer.add_string buf (magic_join ^ "\n");
  Buffer.add_string buf (Printf.sprintf "domain %.17g %.17g\n" j.j_lo j.j_hi);
  Buffer.add_string buf (Printf.sprintf "sizes %d %d\n" j.j_n_r j.j_n_s);
  let section name values =
    Buffer.add_string buf (Printf.sprintf "%s %d\n" name (Array.length values));
    Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf "%.17g\n" v)) values
  in
  section "bounds_r" j.j_bounds_r;
  section "mass_r" j.j_mass_r;
  section "bounds_s" j.j_bounds_s;
  section "mass_s" j.j_mass_s;
  section "sample_r" j.j_sample_r;
  section "sample_s" j.j_sample_s;
  Buffer.contents buf

(* What makes a join summary valid: a finite domain, positive relation
   sizes, two histograms whose strictly ascending bounds run from [lo]
   to [hi] with one non-negative finite mass per bucket, and non-empty
   finite samples. *)
let join_checked who ~lo ~hi ~n_r ~n_s ~bounds_r ~mass_r ~bounds_s ~mass_s ~sample_r
    ~sample_s =
  let ascending (a : float array) =
    let ok = ref (Array.length a >= 2) in
    for i = 0 to Array.length a - 2 do
      if not (a.(i) < a.(i + 1)) then ok := false
    done;
    !ok && all_finite a
  in
  let valid_hist bounds mass =
    ascending bounds
    && Array.length mass = Array.length bounds - 1
    && all_nonneg_finite mass
    && bounds.(0) = lo
    && bounds.(Array.length bounds - 1) = hi
  in
  if not (Float.is_finite lo && Float.is_finite hi && lo < hi) then
    Error (who ^ ": malformed domain bounds")
  else if n_r <= 0 || n_s <= 0 then Error (who ^ ": relation sizes must be positive")
  else if not (valid_hist bounds_r mass_r) then Error (who ^ ": malformed R histogram")
  else if not (valid_hist bounds_s mass_s) then Error (who ^ ": malformed S histogram")
  else if
    Array.length sample_r = 0 || Array.length sample_s = 0
    || (not (all_finite sample_r))
    || not (all_finite sample_s)
  then Error (who ^ ": malformed samples")
  else
    Ok (make_join ~lo ~hi ~n_r ~n_s ~bounds_r ~mass_r ~bounds_s ~mass_s ~sample_r ~sample_s)

let join_of_string s =
  let who = "Stored.join_of_string" in
  match String.split_on_char '\n' s with
  | magic :: domain_line :: sizes_line :: rest when String.trim magic = magic_join ->
    let* lo, hi = parse_pair who ~key:"domain" float_of_string_opt domain_line in
    let* n_r, n_s = parse_pair who ~key:"sizes" int_of_string_opt sizes_line in
    (* Each section is "name <count>" followed by that many values. *)
    let section name lines =
      match lines with
      | header :: rest -> (
        match String.split_on_char ' ' (String.trim header) with
        | [ n; c ] when n = name -> (
          match int_of_string_opt c with
          | Some count when count >= 0 ->
            let rec take acc k = function
              | rest when k = 0 -> Ok (List.rev acc, rest)
              | [] -> Error (Printf.sprintf "%s: truncated %s section" who name)
              | line :: rest -> (
                match float_of_string_opt (String.trim line) with
                | Some v -> take (v :: acc) (k - 1) rest
                | None -> Error (Printf.sprintf "%s: malformed %s value" who name))
            in
            Result.map (fun (vs, rest) -> (Array.of_list vs, rest)) (take [] count rest)
          | _ -> Error (Printf.sprintf "%s: malformed %s count" who name))
        | _ -> Error (Printf.sprintf "%s: missing %s section" who name))
      | [] -> Error (Printf.sprintf "%s: missing %s section" who name)
    in
    let* bounds_r, rest = section "bounds_r" rest in
    let* mass_r, rest = section "mass_r" rest in
    let* bounds_s, rest = section "bounds_s" rest in
    let* mass_s, rest = section "mass_s" rest in
    let* sample_r, rest = section "sample_r" rest in
    let* sample_s, rest = section "sample_s" rest in
    if List.exists (fun l -> String.trim l <> "") rest then
      Error (who ^ ": trailing garbage after sections")
    else
      join_checked who ~lo ~hi ~n_r ~n_s ~bounds_r ~mass_r ~bounds_s ~mass_s ~sample_r
        ~sample_s
  | _ -> Error (who ^ ": missing header")

(* ---------------- kind-dispatched summaries ---------------- *)

type kind = Range_kind | Rect_kind | Join_kind

let kind_name = function
  | Range_kind -> "range"
  | Rect_kind -> "rect"
  | Join_kind -> "join"

let kind_of_name = function
  | "range" -> Ok Range_kind
  | "rect" -> Ok Rect_kind
  | "join" -> Ok Join_kind
  | s -> Error (Printf.sprintf "unknown summary kind %S (expected range, rect or join)" s)

type any = Range of t | Rect of rect | Join of join

let any_kind = function Range _ -> Range_kind | Rect _ -> Rect_kind | Join _ -> Join_kind

let any_cells = function
  | Range t -> cells t
  | Rect r -> r.rbins_x * r.rbins_y
  | Join j -> Array.length j.j_mass_r + Array.length j.j_mass_s

let any_domain = function
  | Range t -> domain t
  | Rect r -> fst (rect_domains r)
  | Join j -> join_domain j

let any_to_string = function
  | Range t -> to_string t
  | Rect r -> rect_to_string r
  | Join j -> join_to_string j

(* Binary payloads: every field is one little-endian 8-byte word, a
   float as its IEEE-754 binary64 bits and a count as an int64, so the
   bits the summary answers from travel unchanged.  Range: lo, hi, the
   weights.  Rect: x_lo, y_lo, the two cell widths, bins_x, bins_y,
   total, the counts.  Join: lo, hi, n_r, n_s, then bounds_r, mass_r,
   bounds_s, mass_s, sample_r and sample_s, each prefixed by its length.
   The derived prefix and suffix arrays are rebuilt on decode, as the
   text decoders rebuild them. *)
let any_to_binary summary =
  let words =
    match summary with
    | Range t -> 2 + Array.length t.weights
    | Rect r -> 7 + Array.length r.rcounts
    | Join j ->
      10 + Array.length j.j_bounds_r + Array.length j.j_mass_r + Array.length j.j_bounds_s
      + Array.length j.j_mass_s + Array.length j.j_sample_r + Array.length j.j_sample_s
  in
  let b = Bytes.create (8 * words) and at = ref 0 in
  let int64 w =
    Bytes.set_int64_le b !at w;
    at := !at + 8
  in
  let float v = int64 (Int64.bits_of_float v) and int n = int64 (Int64.of_int n) in
  let floats a = Array.iter float a in
  let counted a =
    int (Array.length a);
    floats a
  in
  (match summary with
  | Range t ->
    float t.lo;
    float t.hi;
    floats t.weights
  | Rect r ->
    float r.rx_lo;
    float r.ry_lo;
    float r.rwx;
    float r.rwy;
    int r.rbins_x;
    int r.rbins_y;
    float r.rtotal;
    floats r.rcounts
  | Join j ->
    float j.j_lo;
    float j.j_hi;
    int j.j_n_r;
    int j.j_n_s;
    List.iter counted
      [ j.j_bounds_r; j.j_mass_r; j.j_bounds_s; j.j_mass_s; j.j_sample_r; j.j_sample_s ]);
  Bytes.unsafe_to_string b

exception Bad_payload of string

(* One pass over [s.[pos, pos + len)].  Every length prefix is checked
   against the words left before its array is allocated, so a corrupt
   count is an [Error], never a huge allocation; the payload's own
   length bounds every other array. *)
let any_of_binary kind s ~pos ~len =
  let who = "Stored.any_of_binary" in
  if pos < 0 || len < 0 || pos > String.length s - len then
    Error (who ^ ": payload out of bounds")
  else if len mod 8 <> 0 then Error (who ^ ": payload is not a whole number of words")
  else begin
    let stop = pos + len and at = ref pos in
    let words_left () = (stop - !at) / 8 in
    let word () =
      if !at >= stop then raise (Bad_payload (who ^ ": truncated payload"));
      let w = String.get_int64_le s !at in
      at := !at + 8;
      w
    in
    let float () = Int64.float_of_bits (word ()) in
    let int () =
      let w = word () in
      if
        Int64.compare w (Int64.of_int min_int) < 0
        || Int64.compare w (Int64.of_int max_int) > 0
      then raise (Bad_payload (who ^ ": integer field out of range"));
      Int64.to_int w
    in
    let floats n =
      let a = Array.create_float n in
      let base = !at in
      for i = 0 to n - 1 do
        Array.unsafe_set a i (Int64.float_of_bits (String.get_int64_le s (base + (8 * i))))
      done;
      at := base + (8 * n);
      a
    in
    let counted () =
      let n = int () in
      if n < 0 || n > words_left () then
        raise (Bad_payload (Printf.sprintf "%s: array length %d exceeds the payload" who n));
      floats n
    in
    try
      match kind with
      | Range_kind ->
        let lo = float () in
        let hi = float () in
        Result.map (fun t -> Range t) (range_checked who ~lo ~hi (floats (words_left ())))
      | Rect_kind ->
        let x_lo = float () in
        let y_lo = float () in
        let wx = float () in
        let wy = float () in
        let bins_x = int () in
        let bins_y = int () in
        let total = float () in
        Result.map
          (fun r -> Rect r)
          (rect_checked who ~x_lo ~y_lo ~wx ~wy ~bins_x ~bins_y ~total
             (floats (words_left ())))
      | Join_kind ->
        let lo = float () in
        let hi = float () in
        let n_r = int () in
        let n_s = int () in
        let bounds_r = counted () in
        let mass_r = counted () in
        let bounds_s = counted () in
        let mass_s = counted () in
        let sample_r = counted () in
        let sample_s = counted () in
        if words_left () > 0 then Error (who ^ ": trailing bytes after the join arrays")
        else
          Result.map
            (fun j -> Join j)
            (join_checked who ~lo ~hi ~n_r ~n_s ~bounds_r ~mass_r ~bounds_s ~mass_s
               ~sample_r ~sample_s)
    with Bad_payload msg -> Error msg
  end

(* Compact spec syntax for the non-range kinds, mirroring
   [Estimator.spec_of_string]'s role for range entries: the catalog
   stores the spec string with each entry and re-parses it on rebuild. *)
let rect_spec_of_string s =
  match String.index_opt s ':' with
  | None when s = "hist2d" -> Ok (32, 32)
  | Some i when String.sub s 0 i = "hist2d" -> (
    let opt = String.sub s (i + 1) (String.length s - i - 1) in
    let parse_bins b =
      match int_of_string_opt b with Some k when k >= 1 -> Some k | _ -> None
    in
    match String.split_on_char 'x' opt with
    | [ b ] -> (
      match parse_bins b with
      | Some k -> Ok (k, k)
      | None -> Error (Printf.sprintf "malformed rect spec %S" s))
    | [ bx; by ] -> (
      match (parse_bins bx, parse_bins by) with
      | Some kx, Some ky -> Ok (kx, ky)
      | _ -> Error (Printf.sprintf "malformed rect spec %S" s))
    | _ -> Error (Printf.sprintf "malformed rect spec %S" s))
  | _ -> Error (Printf.sprintf "unknown rect spec %S (expected hist2d[:BX[xBY]])" s)

let join_spec_of_string s =
  match String.index_opt s ':' with
  | None when s = "edh" -> Ok 64
  | Some i when String.sub s 0 i = "edh" -> (
    match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
    | Some k when k >= 1 -> Ok k
    | _ -> Error (Printf.sprintf "malformed join spec %S" s))
  | _ -> Error (Printf.sprintf "unknown join spec %S (expected edh[:BUCKETS])" s)

(* Dispatch on the header line; each sub-parser re-checks it, so a
   mislabeled payload still maps to Error. *)
let any_of_string s =
  let header =
    match String.index_opt s '\n' with
    | Some i -> String.trim (String.sub s 0 i)
    | None -> String.trim s
  in
  if header = magic_range then Result.map (fun t -> Range t) (of_string s)
  else if header = magic_rect then Result.map (fun r -> Rect r) (rect_of_string s)
  else if header = magic_join then Result.map (fun j -> Join j) (join_of_string s)
  else Error "Stored.any_of_string: missing header"
