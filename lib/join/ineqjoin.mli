(** Inequality-join size estimation via per-relation equi-depth histograms.

    Extends {!Equijoin} from [R.A = S.B] to [R.A < S.B] and [R.A <= S.B],
    following the histogram-pair algorithm of "Selectivity Estimation of
    Inequality Joins In Databases": build one equi-depth histogram per
    relation from a sample, then sum over the bucket-pair grid

    {v |R JOIN_< S| ~ N_R * N_S * sum_{i,k} m_R(i) m_S(k) P(x < y) v}

    with [P(x < y)] in closed form for uniform-within-bucket values.
    The sum is taken in one merge sweep of the two sorted bound arrays,
    O(k_R + k_S) rather than O(k_R * k_S): pairs that straddle get the
    closed form, and the S buckets wholly above an R bucket ([P = 1])
    are one suffix-mass read.  The
    summaries themselves live in {!Selest.Stored.join} (serialized,
    catalog-cached, served over the wire); this module adds the exact
    merge-count oracle and thin build/estimate wrappers, so a served join
    estimate is bit-identical to the direct library call by construction. *)

val exact_inequality_size :
  Data.Dataset.t -> Data.Dataset.t -> pred:Selest.Stored.join_pred -> int
(** Exact size of [R JOIN_pred S] over the integer attribute.  [Join_eq]
    delegates to {!Equijoin.exact_size}; [Join_lt] / [Join_le] sweep both
    sorted value arrays with one monotone pointer, counting for each S
    value the R values (strictly) below it — O(|R| + |S|) time even though
    the join output itself is quadratic. *)

val summarize :
  ?buckets:int ->
  domain:float * float ->
  n_r:int ->
  n_s:int ->
  float array ->
  float array ->
  Selest.Stored.join
(** [summarize ~domain ~n_r ~n_s sample_r sample_s] builds the servable
    join summary: one equi-depth histogram per relation (default 64
    buckets) plus the sorted, domain-clamped samples retained for
    adaptive rebuilds.  Thin wrapper over
    {!Selest.Stored.join_of_samples}; see it for validation rules.
    @raise Invalid_argument on empty samples, non-positive sizes or
    buckets, an empty domain, or non-finite sample values. *)

val estimate : Selest.Stored.join -> pred:Selest.Stored.join_pred -> float
(** Estimated join size under [pred].  [Join_eq] is the density-product
    formula on the bucket-pair grid (the {!Equijoin} model); [Join_lt] is
    the histogram-pair sum; [Join_le] is their sum, matching the
    oracle's [le = lt + eq] decomposition on integer data.  Each costs
    O(k_R + k_S) and allocates only its float result.  [Join_eq] visits
    the overlapping pairs in the full grid's order, so it is bit-identical
    to the grid sum; [Join_lt] and [Join_le] add the same terms in a
    different order and agree with it to 1e-12 relative
    ([test/test_stored.ml] keeps the grid sums as references).  Alias of
    {!Selest.Stored.join_estimate} — the server calls that directly, which
    is what makes served answers bit-identical to this function. *)

val estimate_of_samples :
  ?buckets:int ->
  domain:float * float ->
  n_r:int ->
  n_s:int ->
  float array ->
  float array ->
  pred:Selest.Stored.join_pred ->
  float
(** {!summarize} followed by {!estimate}: the one-shot offline path. *)
