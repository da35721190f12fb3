(* Latency sample vectors, and percentiles that refuse to speak without
   support: a percentile is reported only when at least [min_tail]
   samples lie beyond it, so p99 needs 1000 samples and p50 needs 20.
   Anything less is an [Error] the caller must surface, never a number. *)

let min_tail = 10

type vec = { mutable data : float array; mutable len : int }

let create ?(cap = 4096) () = { data = Array.make (max 1 cap) 0.0; len = 0 }

let push v x =
  if v.len = Array.length v.data then begin
    let bigger = Array.make (2 * v.len) 0.0 in
    Array.blit v.data 0 bigger 0 v.len;
    v.data <- bigger
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let length v = v.len
let to_array v = Array.sub v.data 0 v.len
let concat vs = Array.concat (List.map to_array vs)

(* The [q]-quantile (type 7, as [Stats.Quantile]) of the samples, if at
   least [min_tail] of them lie above rank [ceil (q n)]. *)
let percentile xs q =
  if not (q > 0.0 && q < 1.0) then invalid_arg "Pct.percentile: q must be in (0, 1)";
  let n = Array.length xs in
  let beyond = n - int_of_float (Float.ceil (q *. float_of_int n)) in
  if beyond < min_tail then
    Error
      (Printf.sprintf "p%g of %d samples has %d beyond it; %d needed" (100.0 *. q) n
         (max 0 beyond) min_tail)
  else Ok (Stats.Quantile.quantile xs q)
