(** Utilities over sorted arrays: binary searches, order checks, and the
    float sort the estimators build their sorted samples with.

    All searches assume the array is sorted in non-decreasing order; this is
    asserted in debug builds but not checked in release code since the hot
    paths of the estimators call them once per query. *)

val is_sorted : ('a -> 'a -> int) -> 'a array -> bool
(** [is_sorted cmp a] is true iff [a] is non-decreasing under [cmp]. *)

val lower_bound : ('a -> 'a -> int) -> 'a array -> 'a -> int
(** [lower_bound cmp a x] is the smallest index [i] with [cmp a.(i) x >= 0],
    or [Array.length a] if every element is smaller than [x].  In other
    words, the number of elements strictly below [x]. *)

val upper_bound : ('a -> 'a -> int) -> 'a array -> 'a -> int
(** [upper_bound cmp a x] is the smallest index [i] with [cmp a.(i) x > 0],
    or [Array.length a]: the number of elements less than or equal to [x]. *)

val count_in_range : ('a -> 'a -> int) -> 'a array -> 'a -> 'a -> int
(** [count_in_range cmp a lo hi] is the number of elements [e] of the sorted
    array [a] with [lo <= e <= hi].  Returns 0 when [lo > hi]. *)

val float_lower_bound : float array -> float -> int
(** {!lower_bound} specialized to floats (avoids the closure on hot paths). *)

val float_upper_bound : float array -> float -> int
(** {!upper_bound} specialized to floats. *)

val branchless_lower_bound : float array -> float -> int
(** Same result as {!float_lower_bound} (the bound index of a sorted array
    is unique), computed with a branch-free loop body: each step halves the
    live window and advances the base by integer arithmetic on the
    comparison, so the branch predictor only sees the [log n] loop exit.
    Used by the batch estimate kernels, where the probe values are
    data-dependent and classic binary search mispredicts half its
    comparisons. *)

val branchless_upper_bound : float array -> float -> int
(** Branch-free {!float_upper_bound}; see {!branchless_lower_bound}. *)

val branchless_lower_bound_from : float array -> pos:int -> len:int -> float -> int
(** {!branchless_lower_bound} restricted to the slice [\[pos, pos + len)]
    of a sorted array; returns an {e absolute} index in [\[pos, pos + len]].
    The batch evaluator uses this to search one component histogram inside
    a concatenated structure-of-arrays layout without slicing. *)

val branchless_upper_bound_from : float array -> pos:int -> len:int -> float -> int
(** Slice variant of {!branchless_upper_bound}; see
    {!branchless_lower_bound_from}. *)

val int_lower_bound : int array -> int -> int
(** {!lower_bound} specialized to ints. *)

val int_upper_bound : int array -> int -> int
(** {!upper_bound} specialized to ints. *)

val float_sort : float array -> unit
(** [float_sort a] sorts [a] in place exactly as [Array.sort Float.compare a]
    does — the same heap sort, the same comparisons, so the same
    permutation, NaNs first and [-0.0]/[0.0] left in the order that sort
    leaves them — without boxing an element per comparison.  The plug-in
    bandwidth fit and the kernel estimator sort their samples with it. *)
