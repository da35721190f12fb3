(** Serializable statistics summaries.

    A production optimizer does not keep samples or fitted estimators in
    memory between sessions; ANALYZE reduces them to a compact summary in
    the system catalog.  This module is that reduction: any fitted
    {!Estimator.t} is probed once per cell of an equal-width grid, the
    per-cell masses are stored, and the summary answers range queries
    under the uniform-within-cell assumption.  Each kind has two
    serializations: a binary one ({!any_to_binary}, raw IEEE-754 bits,
    decoded in one pass) that catalog snapshots persist, and a textual
    one ({!to_string}, one field per line) that [selest_cli analyze] and
    [lookup] exchange and that legacy [selest-catalog v1] snapshots
    embed.  Both decoders build through one validator per kind, so they
    accept and reject the same field values.

    The cell masses are exact cell selectivities of the source estimator
    (probed via {!Estimator.selectivity}, not by sampling the density), so
    a stored kernel summary at [cells] resolution is exactly the kernel
    estimator convolved onto that grid. *)

type t

val of_estimator : ?cells:int -> domain:float * float -> Estimator.t -> t
(** [of_estimator ~domain est] probes [cells] (default 256) equal-width
    cells.  @raise Invalid_argument if [cells <= 0] or the domain is
    empty. *)

val of_fn :
  ?cells:int -> domain:float * float -> (a:float -> b:float -> float) -> t
(** [of_fn ~domain f] is {!of_estimator} generalized to any range
    selectivity function: cell [i] stores [max 0 (f ~a:cell_lo ~b:cell_hi)].
    The adaptive serving path uses this to bake an ST-histogram refinement
    ([Feedback.Adaptive.selectivity]) into a swappable summary.
    @raise Invalid_argument if [cells <= 0] or the domain is empty. *)

val of_sample :
  ?cells:int -> ?spec:Estimator.spec -> domain:float * float -> float array -> t
(** Build the estimator from the sample (spec defaults to
    {!Estimator.kernel_defaults}) and reduce it. *)

val cells : t -> int
(** Grid resolution of this summary. *)

val domain : t -> float * float
(** Estimation domain the cells partition. *)

val selectivity : t -> a:float -> b:float -> float
(** Piecewise-constant range selectivity, clamped to [[0, 1]]: the
    partly covered first and last cells plus the whole cells between,
    read as one difference of prefix masses.  O(1) whatever the range
    covers — the prefix array is derived when the summary is built or
    parsed, and never serialized.  Bounds beyond the domain (infinities
    included) clamp to the edge cells; inverted or NaN bounds give [0]. *)

val selectivity_into :
  t -> pos:int -> len:int -> a:float array -> b:float array -> out:float array -> unit
(** [selectivity_into t ~pos ~len ~a ~b ~out] writes {!selectivity} of
    [Q(a.(i), b.(i))] to [out.(i)] for [pos <= i < pos + len],
    bit-identically to the scalar probe (both inline one probe body),
    O(1) per query and without allocating — the serving engine evaluates
    each same-summary run of a merged batch through this in place.
    [len = 0] touches nothing.
    @raise Invalid_argument on a negative range or arrays shorter than
    [pos + len]. *)

val to_string : t -> string
(** One-line-per-field textual form, safe to store in a catalog column. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}; [Error] describes the first malformed field. *)

(** {1 Rectangle (2-D grid) summaries}

    The 2-D analog of {!t}: an equal-width grid of cell masses over a
    product domain, answering rectangle queries under the
    uniform-within-cell assumption.  [Multidim.Hist2d] delegates its
    arithmetic here, so a served rectangle estimate is bit-identical to
    the direct library call. *)

type rect

val canonical_rect :
  x_lo:float ->
  x_hi:float ->
  y_lo:float ->
  y_hi:float ->
  (float * float * float * float) option
(** Closed-rectangle-on-the-integer-grid canonicalization, the shared
    query semantics of every 2-D estimator in this codebase: the rectangle
    means the integer points it contains, and the continuous region
    actually evaluated is the union of their unit cells —
    [(ceil x_lo - 0.5, floor x_hi + 0.5)] per axis.  Queries already
    phrased on half-integer cell edges map to themselves; a degenerate
    [[a, a]] query becomes the unit cell around [a], agreeing with the
    inclusive exact count of [Multidim.Dataset2d].  [None] when no integer
    point lies inside (inverted, empty or NaN bounds). *)

val rect_of_points :
  domain_x:float * float ->
  domain_y:float * float ->
  bins_x:int ->
  bins_y:int ->
  (float * float) array ->
  rect
(** Build the grid by binning sample points (cell indices clamped in
    float space, so out-of-domain and infinite coordinates land in edge
    cells).  @raise Invalid_argument on an empty sample, empty domains or
    non-positive bin counts. *)

val rect_of_fn :
  domain_x:float * float ->
  domain_y:float * float ->
  bins_x:int ->
  bins_y:int ->
  (x_lo:float -> x_hi:float -> y_lo:float -> y_hi:float -> float) ->
  rect
(** Probe any 2-D selectivity function once per cell (the 2-D {!of_fn}):
    cell [(i, j)] stores [max 0 (f cell_rect)].  Use to reduce a
    product-kernel or independence estimator onto a servable grid.
    @raise Invalid_argument on empty domains or non-positive bins. *)

val rect_bins : rect -> int * int
(** Grid resolution [(bins_x, bins_y)]. *)

val rect_domains : rect -> (float * float) * (float * float)
(** The product domain [(domain_x, domain_y)] the grid partitions. *)

val rect_selectivity :
  rect -> x_lo:float -> x_hi:float -> y_lo:float -> y_hi:float -> float
(** Selectivity of the canonicalized ({!canonical_rect}) rectangle:
    per-cell mass times overlapped area fraction, clamped to [[0, 1]];
    [0] when the rectangle contains no integer point. *)

val rect_density : rect -> float -> float -> float
(** Cell mass over [total * cell area]; 0 outside the grid. *)

val rect_to_string : rect -> string
(** Textual serialization (["selest-stored-rect v1"] header).  It records
    each axis's domain ends, not the cell widths. *)

val rect_of_string : string -> (rect, string) result
(** Inverse of {!rect_to_string}; total on malformed input.  The cell
    widths are re-derived as [(hi - lo) / bins], which can differ by one
    ulp from the widths the summary was built with, so answers may
    differ in the last bits; {!any_to_binary} stores the widths and has
    no such drift. *)

val rect_spec_of_string : string -> (int * int, string) result
(** Parse the compact rect spec syntax the catalog stores:
    ["hist2d"] (32x32 default), ["hist2d:64"], ["hist2d:64x32"].
    Returns the bin counts [(bins_x, bins_y)]. *)

(** {1 Join summaries}

    Per-relation equi-depth histograms plus the retained build samples,
    answering equi- and inequality-join size estimates.  The arithmetic
    (density product for [eq], histogram-pair sum for [lt]/[le]) lives
    here so [Join.Ineqjoin] and the serving stack share one code path. *)

type join_pred = Join_eq | Join_lt | Join_le

val join_pred_to_string : join_pred -> string
(** ["eq"], ["lt"] or ["le"]. *)

val join_pred_of_string : string -> (join_pred, string) result
(** Inverse of {!join_pred_to_string}; [Error] on anything else. *)

type join

val join_of_samples :
  domain:float * float ->
  buckets:int ->
  n_r:int ->
  n_s:int ->
  float array ->
  float array ->
  join
(** [join_of_samples ~domain ~buckets ~n_r ~n_s sample_r sample_s] builds
    per-relation equi-depth histograms (at most [buckets] buckets each;
    zero-width buckets merge) from the two samples, clamped to the shared
    domain, and retains the sorted samples for adaptive rebuilds.
    @raise Invalid_argument on empty samples, non-finite values,
    non-positive sizes/buckets, or an empty domain. *)

val join_domain : join -> float * float
(** The shared attribute domain. *)

val join_sizes : join -> int * int
(** The relation sizes [(n_r, n_s)] estimates scale by. *)

val join_buckets : join -> int * int
(** Bucket counts of the two equi-depth histograms. *)

val join_samples : join -> float array * float array
(** The retained (sorted, domain-clamped) build samples. *)

val join_estimate : join -> pred:join_pred -> float
(** Estimated size of [R.A pred S.B]: the density-product integral for
    [Join_eq] (each integer value occupying a unit cell), the
    histogram-pair sum [sum_ij m_i m_j P(x < y)] for [Join_lt], and
    their sum for [Join_le].  Each predicate is one merge sweep over the
    two sorted bound arrays, O(k_R + k_S) for [k_R] and [k_S] buckets,
    allocating nothing but the boxed float result: only overlapping
    bucket pairs are visited, and for [Join_lt] the S buckets wholly
    above an R bucket are one read of an S suffix-mass array derived
    with the summary (never serialized). *)

val join_to_string : join -> string
(** Textual serialization (["selest-stored-join v1"] header). *)

val join_of_string : string -> (join, string) result
(** Inverse of {!join_to_string}; total on malformed input. *)

val join_spec_of_string : string -> (int, string) result
(** Parse the compact join spec syntax the catalog stores: ["edh"]
    (64 buckets default) or ["edh:128"].  Returns the bucket budget. *)

(** {1 Kind-dispatched summaries}

    What the catalog snapshots and the server caches: one of the three
    summary kinds, serialized with a kind-identifying header line. *)

type kind = Range_kind | Rect_kind | Join_kind

val kind_name : kind -> string
(** ["range"], ["rect"] or ["join"]. *)

val kind_of_name : string -> (kind, string) result
(** Inverse of {!kind_name}; [Error] on anything else. *)

type any = Range of t | Rect of rect | Join of join

val any_kind : any -> kind
(** The constructor's kind. *)

val any_cells : any -> int
(** Summary resolution: grid cells for range, [bins_x * bins_y] for rect,
    total histogram buckets for join. *)

val any_domain : any -> float * float
(** The (x-axis, for rect) estimation domain. *)

val any_to_string : any -> string
(** The kind's serialization — headers stay distinct, so {!any_of_string}
    can dispatch, and a v1 range snapshot loads unchanged. *)

val any_of_string : string -> (any, string) result
(** Parse any of the three summary serializations by header line; total
    on malformed input. *)

val any_to_binary : any -> string
(** The binary payload catalog snapshots persist: every field one
    little-endian 8-byte word, floats as their IEEE-754 binary64 bits and
    counts as int64, so a decoded summary answers bit for bit like the
    one encoded — rect cell widths included, which the text form can
    only re-derive from the domain ends.  The kind is not recorded; the
    caller keeps it beside the payload.  Layout, per kind: range [lo],
    [hi], the weights; rect [x_lo], [y_lo], the two cell widths,
    [bins_x], [bins_y], [total], the counts (row-major); join [lo], [hi],
    [n_r], [n_s], then [bounds_r], [mass_r], [bounds_s], [mass_s],
    [sample_r] and [sample_s], each prefixed by its length. *)

val any_of_binary : kind -> string -> pos:int -> len:int -> (any, string) result
(** [any_of_binary kind s ~pos ~len] decodes the {!any_to_binary}
    payload of [kind] held in [s.[pos, pos + len)], in one pass and
    without parsing text.  Total: a short, over-long or out-of-bounds
    payload, a length prefix larger than the bytes left (checked before
    anything is allocated), or field values the kind's validator
    rejects give [Error], never an exception.  Integrity (torn or
    altered bytes) is the framing's job — [Catalog.Snapshot] checksums
    the payload. *)
