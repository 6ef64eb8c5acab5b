(** Host parallelism over OCaml 5 domains, at run granularity.

    {!Work_steal} is the {e simulated-time} model: the phase makespans
    the experiments publish.  [Domain_pool] is the {e host-time} side: it
    runs whole, independent simulated runs (each on its own
    [Svagc_vmem.Machine]) on several hardware threads.  GC phases never
    use it (DESIGN.md §13.1).

    A pool is only a domain count.  Each {!map} spawns its helper
    domains and joins them before it returns, so no idle domain outlives
    the call: an idle domain would still take part in every later minor
    collection.

    Determinism: each task writes only its own result slot, results come
    back in input order, and a failure re-raises the lowest-index
    exception, so the value of a [map] never depends on the domain
    count.  Tasks must not touch shared mutable state. *)

type t

val max_domains : int
(** Upper bound accepted by {!create} and in [DOMAINS] (128). *)

val create : domains:int -> t
(** @raise Invalid_argument unless [1 <= domains <= max_domains]. *)

val domains : t -> int
(** Total execution streams, the caller's domain included. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] is [List.map f xs], with the elements claimed from an
    atomic counter by the caller and [min (domains t - 1) (n - 1)]
    helper domains spawned for this call and joined before it returns.
    If any [f x] raises, the exception of the lowest-index failing
    element is re-raised; which of the other elements ran is
    unspecified.  A call from inside a task runs inline, in order. *)

val env_domains : unit -> (int, string) result
(** The domain count [DOMAINS] asks for: an integer in
    [1 .. max_domains], or [Error] naming the bad value.  Unset, it is
    [min 4 (Domain.recommended_domain_count ())] — 4 matching the
    paper's [GCThreadsCount] tuning, fewer on smaller hosts. *)

val global : unit -> t
(** A pool of {!env_domains}'s count.  Spawns nothing.
    @raise Invalid_argument on a bad [DOMAINS]. *)
