(** In-memory span recorder for the traced run.  A span has a kind (an
    index into the caller's name table), a host start and end time in
    seconds, and the span that was open when it began.  Nothing is
    written until {!write}. *)

type t

val create : now:(unit -> float) -> t

val enter : t -> int -> int
(** Open a span of the given kind under the innermost open span; returns
    its id. *)

val leave : t -> int -> unit
(** Close span [id] and every span still open inside it (so an exception
    that skipped inner [leave]s cannot unbalance the stack). *)

val current : t -> int
(** The innermost open span, or [-1] when none is open. *)

val add_closed : t -> kind:int -> start:float -> stop:float -> parent:int -> unit
(** Record a span after the fact, e.g. a set-up interval only known to
    have ended once a later boundary was seen. *)

val length : t -> int

val kinds : t -> int array

val parents : t -> int array

val durations : t -> float array

val write : t -> names:string array -> string -> unit
(** One line per span: [id,name,parent,start,end], times relative to
    the first span's start, in seconds. *)
