(** Fault-injection campaign over optimized mappings.

    The paper optimizes mappings on a healthy NoC; this campaign asks
    how those mappings degrade when the hardware breaks.  For one
    application it first searches the CWM and CDCM winners on the
    fault-free CRG (via {!Experiment.optimize_pair}), then replays both
    placements under every single-link failure plus a sampled set of
    multi-link failures, evaluating each scenario with the full CDCM
    model on the degraded CRG ({!Nocmap_noc.Crg.create} with [?faults]).
    Per mapping it reports the spread — in the style of {!Robustness} —
    of energy inflation, latency inflation, and dropped packets across
    the scenarios.

    Determinism: the whole campaign is a function of [seed].  The
    scenario list is built upfront from a pre-split RNG substream and
    each scenario evaluation is RNG-free, so fanning the sweep out on a
    [?pool] is bit-identical to the sequential run. *)

type config = {
  experiment : Experiment.config;  (** Search budget and NoC parameters. *)
  tech : Nocmap_energy.Technology.t;  (** Technology point evaluated. *)
  multi_fault_k : int;      (** Failed links per sampled scenario. *)
  multi_fault_count : int;  (** Sampled multi-link scenarios (0 = none). *)
  fault_policy : Nocmap_sim.Wormhole.fault_policy;
}

val default_config : config
(** Quick search budget, deep-submicron technology, 8 sampled 2-link
    scenarios, {!Nocmap_sim.Wormhole.default_fault_policy}. *)

(** One fault scenario replayed under both optimized mappings. *)
type scenario_result = {
  scenario : Nocmap_noc.Fault.t;
  unreachable_pairs : int;    (** Ordered tile pairs with no route. *)
  total_detour_links : int;   (** Extra links over all rerouted pairs. *)
  cwm : Nocmap_mapping.Cost_cdcm.evaluation;
  cdcm : Nocmap_mapping.Cost_cdcm.evaluation;
}

(** Degradation of one mapping across all scenarios, relative to its
    fault-free baseline. *)
type mapping_report = {
  label : string;             (** ["CWM"] or ["CDCM"]. *)
  baseline : Nocmap_mapping.Cost_cdcm.evaluation;  (** Fault-free. *)
  energy_inflation : Robustness.spread;   (** Percent vs baseline total. *)
  latency_inflation : Robustness.spread;  (** Percent vs baseline texec. *)
  dropped : Robustness.spread;            (** Dropped packets per scenario. *)
}

type t = {
  app : string;
  mesh : Nocmap_noc.Mesh.t;
  seed : int;
  scenarios : scenario_result list;
      (** Single-link scenarios in ascending link order, then the
          sampled multi-link scenarios. *)
  cwm_report : mapping_report;
  cdcm_report : mapping_report;
}

val run :
  ?config:config ->
  ?pool:Nocmap_util.Domain_pool.t ->
  ?stop:(unit -> bool) ->
  ?journal:Nocmap_mapping.Search_persist.journal ->
  mesh:Nocmap_noc.Mesh.t ->
  seed:int ->
  Nocmap_model.Cdcg.t ->
  t
(** Runs the full campaign; deterministic per [seed], bit-identical
    with and without [?pool].  [?stop] interrupts the mapping searches
    (they return best-so-far); the scenario sweep itself always runs to
    completion so the reported spreads are over the full scenario set.
    [?journal] checkpoints only the two mapping searches, as the search
    legs of {!Experiment.optimize_pair} under the [optimize] scope.  The
    scenario sweep is a deterministic function of the two placements,
    so every run recomputes it rather than checkpointing it; a killed
    campaign resumes its searches and reports bit-identically.
    @raise Invalid_argument when the application has more cores than the
    mesh has tiles, or the config's sampling parameters are invalid for
    the mesh. *)

val render : t -> string
(** ASCII table of the two mapping reports plus the worst scenarios. *)

val to_csv : t -> string
(** One header line, then one line per scenario:
    [scenario,faults,unreachable_pairs,total_detour_links,
     cwm_total_j,cwm_texec_ns,cwm_dropped,cwm_retries,
     cdcm_total_j,cdcm_texec_ns,cdcm_dropped,cdcm_retries]. *)
