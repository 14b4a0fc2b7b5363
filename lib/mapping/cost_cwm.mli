(** The CWM objective function (Equation 3).

    For a placement, every communication [a -> b] of the CWG is routed
    on the CRG; its [w_ab] bits charge [ERbit] at each of the [K]
    routers and [ELbit] on each of the [K-1] links.  The total is the
    NoC dynamic energy [EDyNoC], the only quantity CWM can optimize —
    it carries no timing, so it cannot see contention or static
    energy.

    An unreachable pair of a faulty CRG (no surviving route, [K = 0])
    costs nothing: its packets are dropped, as in {!Cost_cdcm}. *)

type t
(** An evaluator for one (technology, CRG, CWG) triple: [Eq. 2]'s
    energy per bit tabulated once per (routers, TSV links) class, so an
    evaluation is one O(NCC) loop of [bits * ebit] multiply-adds over
    the {!Nocmap_model.Cwg} connection arrays and the
    {!Nocmap_noc.Crg.router_counts}/{!Nocmap_noc.Crg.tsv_counts}
    tables. *)

val create :
  tech:Nocmap_energy.Technology.t ->
  crg:Nocmap_noc.Crg.t ->
  cwg:Nocmap_model.Cwg.t ->
  t

val evaluate : t -> Placement.t -> float
(** [EDyNoC] in Joules.  The placement is validated on every call.
    @raise Invalid_argument on an invalid placement. *)

val pair_ebit : t -> int -> float
(** Energy per bit ({!Nocmap_energy.Equations.ebit_path}) of the path
    for the flat tile-pair index [src * tiles + dst]; 0 for an
    unreachable pair. *)

val dynamic_energy :
  tech:Nocmap_energy.Technology.t ->
  crg:Nocmap_noc.Crg.t ->
  cwg:Nocmap_model.Cwg.t ->
  Placement.t ->
  float
(** [evaluate (create ~tech ~crg ~cwg)], for one-off costs; searches
    build the evaluator once (see {!Objective.cwm}).
    @raise Invalid_argument on an invalid placement. *)

val cost_table :
  tech:Nocmap_energy.Technology.t ->
  crg:Nocmap_noc.Crg.t ->
  cwg:Nocmap_model.Cwg.t ->
  Placement.t ->
  float array * float array
(** Per-router and per-link-slot energy cost variables (the Figure 2
    annotations); their sum equals {!dynamic_energy}. *)

val bit_hops :
  crg:Nocmap_noc.Crg.t -> cwg:Nocmap_model.Cwg.t -> Placement.t -> int
(** Technology-independent traffic metric: total [bits * routers]
    traversed.  Monotone in {!dynamic_energy} only for fixed router/link
    ratios; exposed for diagnostics and tests. *)
