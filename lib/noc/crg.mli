(** Communication resource graph (Definition 3 of the paper).

    The CRG packages the target architecture: the mesh, the routing
    algorithm, an optional hardware-fault scenario, and precomputed
    router/link paths between every ordered tile pair.  Routers and
    links carry the cost variables the mapping algorithms accumulate;
    those annotations live with the evaluator, while this module owns
    the static structure.

    With a {!Fault} scenario, path precomputation degrades gracefully:
    a pair whose dimension-ordered route survives keeps it unchanged; a
    pair whose route crosses a failed component falls back to a minimal
    breadth-first reroute over the surviving topology (deterministic —
    neighbors are explored in ascending {!Link.id} order); a pair with
    no surviving route is classified {!Unreachable} instead of raising.
    An empty fault set yields paths bit-identical to the fault-free
    CRG. *)

type path = {
  routers : int array;  (** Tiles traversed, source to destination inclusive. *)
  links : int array;    (** {!Link.id}s between consecutive routers. *)
}

(** Fate of an ordered tile pair under the CRG's fault scenario. *)
type reachability =
  | Reachable of int  (** Extra links taken versus the fault-free
                          dimension-ordered route (0 = route intact). *)
  | Unreachable       (** No surviving route; {!path} is empty. *)

type t

val create : ?routing:Routing.algorithm -> ?faults:Fault.t -> Mesh.t -> t
(** Builds the CRG and precomputes all pairwise paths (XY by default).
    @raise Invalid_argument when [faults] was built for a different mesh
    or references link slots that are not physical under the requested
    routing's wrap mode. *)

val mesh : t -> Mesh.t

val routing : t -> Routing.algorithm

val faults : t -> Fault.t option
(** The scenario passed to {!create}, if any. *)

val tile_count : t -> int

val path : t -> src:int -> dst:int -> path
(** Precomputed path; the empty path for an {!Unreachable} pair.
    @raise Invalid_argument on out-of-range tiles. *)

val classify : t -> src:int -> dst:int -> reachability
(** @raise Invalid_argument on out-of-range tiles. *)

val reachable : t -> src:int -> dst:int -> bool

val unreachable_pairs : t -> (int * int) list
(** Ordered pairs with no surviving route, ascending; empty on a
    fault-free CRG. *)

val total_detour_links : t -> int
(** Sum of per-pair detour lengths — 0 on a fault-free CRG. *)

val max_detour_links : t -> int

val router_count_on_path : t -> src:int -> dst:int -> int
(** The paper's [K]: number of routers a packet traverses (0 for an
    {!Unreachable} pair). *)

val tsv_links_on_path : t -> src:int -> dst:int -> int
(** Number of vertical (TSV) links on the precomputed path — the [v] in
    the 3-D extension of Eq. (2).  Always 0 on a planar mesh; O(1). *)

val router_counts : t -> int array
(** {!router_count_on_path} for every ordered pair, flat: entry
    [src * tile_count t + dst].  Filled by {!create}; shared, so callers
    must not mutate it. *)

val tsv_counts : t -> int array
(** {!tsv_links_on_path} for every ordered pair, laid out as
    {!router_counts} (all 0 on a planar mesh).  Shared; do not mutate. *)

val max_router_count : t -> int
(** Largest entry of {!router_counts}: the longest path's [K]. *)

val max_tsv_count : t -> int
(** Largest entry of {!tsv_counts}; 0 on a planar mesh. *)

val to_digraph : t -> Nocmap_graph.Digraph.t
(** Vertices are tiles, edges are the {e surviving} physical links
    (label 0); the architecture graph of Definition 3, e.g. for DOT
    export. *)
