(** The arithmetic the benchmark reports with.  Kept apart from the
    drivers so it can be tested on its own. *)

val nearest_rank : q:float -> int -> int
(** [nearest_rank ~q n] is the 1-indexed rank [ceil (q * n)] of the
    nearest-rank [q]-quantile of [n] samples, with the same epsilon guard
    as [Svagc_util.Histogram.quantile], clamped to [\[1, n\]].  [n] must
    be positive. *)

val beyond : q:float -> int -> int
(** Samples strictly above the nearest-rank [q]-quantile: [n - rank]. *)

val reportable : q:float -> int -> bool
(** A percentile is reported only when at least ten samples lie beyond
    it: p50 needs 20 samples, p90 100, p99 1000. *)

val highest_reportable : float list -> int -> float option
(** The largest quantile of the list that is {!reportable} for [n]
    samples, if any. *)

val ratio : num:float -> base:float -> float
(** [num / base], and 0 when the base is 0 (a layer that did no work). *)

val pct : num:float -> base:float -> float
(** [100 * ratio]. *)

val self_times : parent:int array -> dur:float array -> float array
(** Self time of every span: its duration minus the part its children
    cover.  [parent.(i)] is the index of span [i]'s parent, or [-1] for a
    root.  Children of one span never overlap (spans nest like a call
    stack), so their coverage is the sum of their durations. *)

val sum_by : kind:int array -> nkinds:int -> float array -> float array
(** [sum_by ~kind ~nkinds v] adds [v.(i)] into slot [kind.(i)]. *)
