(** One CWM-vs-CDCM comparison — the experiment behind each Table 2 row.

    For a given application and NoC, the FRW flow is:
    + search the best CWM mapping (simulated annealing on Equation (3));
    + search the best CDCM mapping per technology (annealing on
      Equation (10), whose static term differs per technology);
    + evaluate every winner under the full CDCM model and report the
      execution-time reduction (ETR) and the energy-consumption savings
      (ECS) per technology.

    ETR is measured at [tech_high] (the deep-submicron point, where the
    CDCM objective actually weighs timing); ECS at technology T compares
    the CWM mapping against the CDCM mapping optimized for T. *)

type budget =
  | Quick      (** Small annealing budget — tests and smoke runs. *)
  | Standard   (** Default Table 2 budget. *)
  | Thorough   (** More restarts and slower cooling. *)

type config = {
  budget : budget;
  restarts : int;                          (** Annealing restarts (best-of). *)
  params : Nocmap_energy.Noc_params.t;
  tech_low : Nocmap_energy.Technology.t;   (** The paper's 0.35 um column. *)
  tech_high : Nocmap_energy.Technology.t;  (** The paper's 0.07 um column. *)
}
(** The CDCM legs always memoize their evaluations behind the CRG's
    path-exact symmetry group ({!Nocmap_mapping.Eval_cache}); the cache
    never changes a result, and each restart owns a private one, so
    pooled runs stay deterministic. *)

val default_config : config
(** [Standard] budget, 2 restarts, the paper's NoC timing parameters
    (tr=2, tl=1, 1-bit flits), 0.35 um / 0.07 um. *)

val quick_config : config

type outcome = {
  app : string;
  mesh : Nocmap_noc.Mesh.t;
  cwm_low : Nocmap_mapping.Cost_cdcm.evaluation;
      (** CWM winner evaluated under CDCM at [tech_low]. *)
  cwm_high : Nocmap_mapping.Cost_cdcm.evaluation;
  cdcm_low : Nocmap_mapping.Cost_cdcm.evaluation;
      (** CDCM winner for [tech_low], evaluated at [tech_low]. *)
  cdcm_high : Nocmap_mapping.Cost_cdcm.evaluation;
  etr_percent : float;       (** Execution-time reduction at [tech_high]. *)
  ecs_low_percent : float;   (** ECS at [tech_low]. *)
  ecs_high_percent : float;  (** ECS at [tech_high]. *)
  cwm_cpu_seconds : float;   (** CPU time of the CWM search. *)
  cdcm_cpu_seconds : float;  (** CPU time of both CDCM searches. *)
  cwm_evaluations : int;
  cdcm_evaluations : int;
}

val compare_models :
  ?pool:Nocmap_util.Domain_pool.t ->
  ?stop:(unit -> bool) ->
  ?journal:Nocmap_mapping.Search_persist.journal ->
  rng:Nocmap_util.Rng.t ->
  config:config ->
  mesh:Nocmap_noc.Mesh.t ->
  Nocmap_model.Cdcg.t ->
  outcome
(** [?pool] runs the annealing restarts of each search leg on a domain
    pool; results are bit-identical to the sequential run for the same
    [rng] (each restart gets a pre-split substream and its own
    simulation scratch).  [?stop] is polled inside every annealing
    descent; when it flips to [true] each leg returns its best-so-far.
    [?journal] (its key is the run's scope) journals every annealing
    restart into its own shard [<scope>.<leg>.leg<i>]; re-running over
    the same store after a crash replays finished legs, resumes the
    interrupted one from its last checkpoint, and reproduces the
    uninterrupted results bit for bit.  Reported CPU seconds then cover
    only the work actually redone.
    @raise Invalid_argument when the application has more cores than the
    mesh has tiles. *)

type mapped_pair = {
  pair_crg : Nocmap_noc.Crg.t;             (** Fault-free CRG searched on. *)
  cwm_placement : Nocmap_mapping.Placement.t;
  cdcm_placement : Nocmap_mapping.Placement.t;
}

val optimize_pair :
  ?pool:Nocmap_util.Domain_pool.t ->
  ?stop:(unit -> bool) ->
  ?journal:Nocmap_mapping.Search_persist.journal ->
  rng:Nocmap_util.Rng.t ->
  config:config ->
  mesh:Nocmap_noc.Mesh.t ->
  tech:Nocmap_energy.Technology.t ->
  Nocmap_model.Cdcg.t ->
  mapped_pair
(** The CWM winner and the (warm-started) CDCM winner at one technology
    point, both searched on the fault-free CRG — the inputs a
    {!Fault_campaign} stresses under link failures.  Determinism and
    [?pool]/[?stop] behave as in {!compare_models}.
    @raise Invalid_argument when the application has more cores than the
    mesh has tiles. *)

val sa_config : config -> tiles:int -> Nocmap_mapping.Annealing.config
(** The annealing budget used for each search leg. *)
