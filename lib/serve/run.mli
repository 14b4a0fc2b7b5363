(** The one run dispatcher: a validated {!Job_spec.t} in, a mapping out.

    CLI [map] and the serve {!Engine} both execute their runs here, so
    the paper's flow — pick the CWM or CDCM objective, then search — is
    written once.  [execute] owns the per-budget configuration table,
    the objective, symmetry group and evaluation caches (decomposition's
    region-keyed ones included) and the journal shard keys.  Callers
    supply only what differs between them.

    Every run owns its evaluation caches: a single-domain search, each
    portfolio racer and each decompose region gets a fresh one, and
    none outlives the run.  Caching never changes a result, only CPU
    time and the [cache.*] metrics, so it is always on; under CWM
    {!Nocmap_mapping.Objective.with_cache} leaves the closed-form cost
    uncached.  ([es] always enumerates only symmetry-canonical
    placements.) *)

type report =
  | Plain
  | Portfolio of Nocmap_mapping.Portfolio.report
  | Decompose of Nocmap_mapping.Decompose.report

type outcome = {
  cdcg : Nocmap_model.Cdcg.t;  (** The resolved application. *)
  result : Nocmap_mapping.Objective.search_result;
  evaluation : Nocmap_mapping.Cost_cdcm.evaluation;
      (** The final placement under the full CDCM model. *)
  report : report;
  cache : Nocmap_mapping.Eval_cache.t option;
      (** The cache of a single-domain search, for hit-rate reports; it
          sees no lookup under CWM. *)
}

val execute :
  ?journal:Nocmap_mapping.Search_persist.journal ->
  ?pool:Nocmap_util.Domain_pool.t ->
  ?convergence:Nocmap_obs.Series.t ->
  stop:(unit -> bool) ->
  Job_spec.t ->
  (outcome, string) result
(** [Error] when the application cannot be loaded or does not fit, or
    when a route of the mesh is longer than the simulator allows
    ({!Nocmap_sim.Wormhole.check_routes}); both before any search.
    With [journal] the {!journaled} algorithms checkpoint through
    {!Nocmap_mapping.Search_persist} under the shard
    [Search_persist.sub journal suffix]: [map.sa], [job.<id>.decompose];
    greedy+local uses the [local] suffix.  A re-run over the same store
    resumes bit-identically.  [pool] serves the {!parallel} algorithms;
    [convergence] records sa, es, local and greedy+local.  [stop] must
    be sticky; a stopped run returns its best-so-far.
    @raise Failure on a corrupt journal or a checkpoint of another run. *)

val journaled : Job_spec.algorithm -> bool
val journaled_algorithms : string list

val parallel : Job_spec.algorithm -> bool
(** Portfolio and decompose, the algorithms that use a domain pool. *)
