(** Gaussian pilot estimator.

    The direct plug-in rule (Section 4.3) and the hybrid estimator's
    change-point detector (Section 3.3) both need derivatives of a pilot
    density estimate.  The Epanechnikov estimator's second derivative is a
    sum of step functions, so this module provides the standard smooth
    alternative: a Gaussian-kernel pilot, whose roughness functionals
    [int (f_hat')^2] and [int (f_hat'')^2] have exact closed forms as double
    sums over sample pairs (convolution identity of normal densities), with
    an 8-sigma cutoff exploiting sortedness. *)

type t

val create : h:float -> float array -> t
(** [create ~h samples] sorts a copy of [samples].
    @raise Invalid_argument if [h <= 0] or the sample is empty. *)

val of_sorted : h:float -> float array -> t
(** [of_sorted ~h xs] is {!create} over a sample already sorted the way
    {!Stats.Array_util.float_sort} sorts it.  [xs] is shared, neither
    copied nor checked: the plug-in bandwidth iteration refits its pilot
    at several bandwidths over one sorted copy.
    @raise Invalid_argument if [h <= 0] or the sample is empty. *)

val bandwidth : t -> float
(** The pilot's Gaussian bandwidth [h]. *)

val density : t -> float -> float
(** Gaussian KDE [f_hat(x)]. *)

val deriv1 : t -> float -> float
(** First derivative [f_hat'(x)]. *)

val deriv2 : t -> float -> float
(** Second derivative [f_hat''(x)] — the change-point detector's signal. *)

val roughness_deriv1 : t -> float
(** Exact [int (f_hat')^2 dx = -(1/n^2) sum_ij phi''_{sqrt2 h}(X_i - X_j)].
    One pass over the sorted pairs within the cutoff, allocating nothing
    per pair. *)

val roughness_deriv2 : t -> float
(** Exact [int (f_hat'')^2 dx = (1/n^2) sum_ij phi''''_{sqrt2 h}(X_i - X_j)]. *)
