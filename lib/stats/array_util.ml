let is_sorted cmp a =
  let n = Array.length a in
  let rec go i = i >= n || (cmp a.(i - 1) a.(i) <= 0 && go (i + 1)) in
  go 1

let lower_bound cmp a x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if cmp a.(mid) x < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let upper_bound cmp a x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if cmp a.(mid) x <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let count_in_range cmp a lo hi =
  if cmp lo hi > 0 then 0 else upper_bound cmp a hi - lower_bound cmp a lo

let[@inline always] float_lower_bound (a : float array) x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let[@inline always] float_upper_bound (a : float array) x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if a.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Branchless binary searches.  The loop body has no data-dependent branch:
   each step halves the live window and advances the base with integer
   arithmetic on the comparison result, so the only mispredictable control
   flow is the (log n) loop exit.  Results are identical to the classic
   searches above — the lower/upper bound of a sorted array is unique — and
   the [@inline always] annotation lets callers keep the probe value in a
   register (unboxed) across the call. *)

let[@inline always] branchless_lower_bound_from (a : float array) ~pos ~len x =
  let base = ref pos and n = ref len in
  while !n > 1 do
    let half = !n lsr 1 in
    let mid = !base + half in
    (* base += half iff a.(mid - 1) < x, i.e. the left half cannot hold the bound. *)
    base := !base + (half * Bool.to_int (Array.unsafe_get a (mid - 1) < x));
    n := !n - half
  done;
  if !n = 1 && Array.unsafe_get a !base < x then !base + 1 else !base

let[@inline always] branchless_upper_bound_from (a : float array) ~pos ~len x =
  let base = ref pos and n = ref len in
  while !n > 1 do
    let half = !n lsr 1 in
    let mid = !base + half in
    base := !base + (half * Bool.to_int (Array.unsafe_get a (mid - 1) <= x));
    n := !n - half
  done;
  if !n = 1 && Array.unsafe_get a !base <= x then !base + 1 else !base

let[@inline always] branchless_lower_bound (a : float array) x =
  branchless_lower_bound_from a ~pos:0 ~len:(Array.length a) x

let[@inline always] branchless_upper_bound (a : float array) x =
  branchless_upper_bound_from a ~pos:0 ~len:(Array.length a) x

let int_lower_bound (a : int array) x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let int_upper_bound (a : int array) x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if a.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

(* [Array.sort Float.compare], specialised.  The stdlib heap sort calls
   its comparison through a closure and passes the element it moves as a
   function argument, so every read of a float array boxes.  This is the
   same algorithm with the recursions turned into loops, the [Bottom]
   exception into a -1 son, and [Float.compare x y < 0] written out as
   [float_lt]: it makes the same comparisons in the same order and so
   leaves the same permutation — ties, NaNs and signed zeros included. *)

let[@inline always] float_lt (x : float) y = x < y || (x <> x && y = y)

(* The index of the largest of [i]'s (up to three) sons below [l], or -1
   when [i] has none. *)
let maxson (a : float array) l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x = if float_lt a.(i31) a.(i31 + 1) then i31 + 1 else i31 in
    if float_lt a.(x) a.(i31 + 2) then i31 + 2 else x
  end
  else if i31 + 1 < l && float_lt a.(i31) a.(i31 + 1) then i31 + 1
  else if i31 < l then i31
  else -1

(* Move the hole at [i] down to a leaf along the largest sons. *)
let bubble (a : float array) l i =
  let i = ref i and j = ref (maxson a l i) in
  while !j >= 0 do
    a.(!i) <- a.(!j);
    i := !j;
    j := maxson a l !i
  done;
  !i

let float_sort (a : float array) =
  let l = Array.length a in
  for i = ((l + 1) / 3) - 1 downto 0 do
    (* trickle [e] down from [i] *)
    let e = a.(i) in
    let i = ref i and moving = ref true in
    while !moving do
      let j = maxson a l !i in
      if j >= 0 && float_lt e a.(j) then begin
        a.(!i) <- a.(j);
        i := j
      end
      else begin
        a.(!i) <- e;
        moving := false
      end
    done
  done;
  for i = l - 1 downto 2 do
    let e = a.(i) in
    a.(i) <- a.(0);
    (* trickle [e] up from the leaf the hole reached *)
    let k = ref (bubble a i 0) and moving = ref true in
    while !moving do
      let father = (!k - 1) / 3 in
      if float_lt a.(father) e then begin
        a.(!k) <- a.(father);
        if father > 0 then k := father
        else begin
          a.(0) <- e;
          moving := false
        end
      end
      else begin
        a.(!k) <- e;
        moving := false
      end
    done
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end
