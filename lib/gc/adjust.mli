(** Phase III — adjusting pointers.

    Every reference slot of every live object is rewritten to the
    forwarding address its target computed in phase II.  (Roots are OCaml
    records in this simulator and follow their objects implicitly; the
    per-object cost still charges the root-set fixups a real VM performs.)

    The rewrites run on the calling domain, in [live] order (DESIGN.md
    §13); the simulated parallelism is the work-stealing makespan over
    [threads]. *)

open Svagc_heap

val run : Heap.t -> threads:int -> live:Obj_model.t list -> float
(** Returns the phase time in ns.
    @raise Invalid_argument on the first reference, in [live] order, to
      an unmarked object or to an address no object occupies. *)
