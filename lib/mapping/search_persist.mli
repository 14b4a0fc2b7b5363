(** Crash-safe wrappers around the searchers: each journaled call owns
    one journal shard in a {!Nocmap_persist.Store} and is {e resumable}
    — run it again over the same store after a crash and it picks up
    from the last checkpoint, producing a result bit-identical to the
    uninterrupted run.

    Journal protocol per shard: [progress] records carry the live
    search state every [every] evaluations (and on interrupt); one
    final [done] record carries the result.  On re-entry:
    - a [done] record short-circuits the search and replays the
      recorded result ([persist.replayed_results]);
    - otherwise the latest [progress] record seeds a resume
      ([persist.resume_events]);
    - an empty journal (or none) runs fresh.

    The shard header stores a fingerprint of the search (algorithm,
    objective name, rng entry state, dimensions, config, warm start);
    resuming with a mismatching fingerprint fails loudly rather than
    silently mixing two different runs.  Run-level identity
    (application, mesh, seed) is the caller's manifest's job.

    Every wrapper takes its shard as one optional [?journal].  Without
    it the call is the plain searcher (no shard, no fingerprint), so
    callers need no plain-versus-persisted branch.  The
    same plain path runs when [stop] is already set on entry: the
    caller is winding down, so this leg's inputs may derive from an
    upstream search that was itself cut short and journaling them would
    poison the store with state a resumed run can never reproduce. *)

type journal = {
  store : Nocmap_persist.Store.t;  (** The store holding the shard. *)
  key : string;
      (** The shard's key; callers that journal several legs use it as
          a prefix and {!sub} it per leg. *)
  every : int;  (** Checkpoint cadence in cost evaluations. *)
}
(** One journal descriptor for every layer: a searcher's shard, an
    experiment's scope ([Experiment], [Table2], [Fault_campaign]) and a
    job's prefix ([Nocmap_serve.Run]). *)

val sub : journal -> string -> journal
(** [sub j name] nests a scope: the key becomes [j.key ^ "." ^ name],
    e.g. ["t2-03-4x4-app2.cdcm-0.07u.leg1"]. *)

val default_every : int
(** The CLI's and the daemon's default cadence (10,000 evaluations —
    well under 2% overhead on CDCM objectives). *)

val annealing :
  ?journal:journal ->
  rng:Nocmap_util.Rng.t ->
  config:Annealing.config ->
  tiles:int ->
  objective:Objective.t ->
  ?initial:Placement.t ->
  ?stop:(unit -> bool) ->
  ?convergence:Nocmap_obs.Series.t ->
  cores:int ->
  unit ->
  Objective.search_result
(** {!Annealing.search} under the journal protocol.  When [stop] cuts
    the run short, no [done] record is written — the journal stays
    resumable and the returned best-so-far is provisional.
    @raise Failure on journal corruption or fingerprint mismatch. *)

val local_search :
  ?journal:journal ->
  objective:Objective.t ->
  tiles:int ->
  initial:Placement.t ->
  ?max_evaluations:int ->
  ?stop:(unit -> bool) ->
  ?convergence:Nocmap_obs.Series.t ->
  unit ->
  Objective.search_result
(** {!Local_search.search} under the same protocol. *)

val tabu :
  ?journal:journal ->
  rng:Nocmap_util.Rng.t ->
  config:Tabu.config ->
  tiles:int ->
  objective:Objective.t ->
  ?initial:Placement.t ->
  ?stop:(unit -> bool) ->
  ?convergence:Nocmap_obs.Series.t ->
  cores:int ->
  unit ->
  Objective.search_result
(** {!Tabu.search} under the same protocol (algorithm fingerprint
    ["tabu"] — a shard recorded by any other algorithm is rejected). *)

val genetic :
  ?journal:journal ->
  rng:Nocmap_util.Rng.t ->
  config:Genetic.config ->
  tiles:int ->
  objective:Objective.t ->
  ?initial:Placement.t ->
  ?stop:(unit -> bool) ->
  ?convergence:Nocmap_obs.Series.t ->
  cores:int ->
  unit ->
  Objective.search_result
(** {!Genetic.search} under the same protocol (algorithm fingerprint
    ["ga"]). *)

val portfolio :
  ?journal:journal ->
  rng:Nocmap_util.Rng.t ->
  config:Portfolio.config ->
  strategies:Portfolio.strategy list ->
  tech:Nocmap_energy.Technology.t ->
  crg:Nocmap_noc.Crg.t ->
  cwg:Nocmap_model.Cwg.t ->
  objective_name:string ->
  objective_for:(Portfolio.strategy -> Objective.t) ->
  ?pool:Nocmap_util.Domain_pool.t ->
  ?stop:(unit -> bool) ->
  ?target:float ->
  unit ->
  Portfolio.report
(** {!Portfolio.search} under the same protocol, journaled as a single
    shard: each [progress] record is one consistent race snapshot
    (every racer's native live state plus the driver's barrier
    bookkeeping), and the [done] record carries the full
    {!Portfolio.report}.  The fingerprint includes the strategy list
    and the per-strategy configs, so reopening the shard with a
    different portfolio — even one renamed strategy — fails loudly.
    [objective_name] identifies the objective in the fingerprint
    without forcing [objective_for] (which may build caches). *)

val decompose :
  ?journal:journal ->
  rng:Nocmap_util.Rng.t ->
  config:Decompose.config ->
  crg:Nocmap_noc.Crg.t ->
  cwg:Nocmap_model.Cwg.t ->
  objective_name:string ->
  objective_for:(unit -> Objective.t) ->
  ?region_objective_for:(cores:int array -> tiles:int array -> Objective.t) ->
  ?pool:Nocmap_util.Domain_pool.t ->
  ?stop:(unit -> bool) ->
  unit ->
  Decompose.report
(** {!Decompose.search} under the same protocol, journaled as a single
    shard: each [progress] record is one consistent snapshot (every
    region's native refiner state, the seed, and — once the regions
    composed — the base result and the in-flight polish), and the
    [done] record carries the full {!Decompose.report}.  The partition
    and seed assignment are pure recomputations, so they are not
    journaled; the fingerprint covers the config (including the
    refiner), the objective name, the rng entry state and the instance
    dimensions, rejecting any mismatched resume loudly. *)

(**/**)

(** Shared encodings, exposed for the driver layer ({!module:
    Nocmap.Experiment} et al.) and tests. *)

val placement_json : Placement.t -> Nocmap_persist.Json.t
val placement_of_json : Nocmap_persist.Json.t -> Placement.t
val result_json : Objective.search_result -> Nocmap_persist.Json.t
val result_of_json : Nocmap_persist.Json.t -> Objective.search_result

val portfolio_checkpoint_json : Portfolio.checkpoint -> Nocmap_persist.Json.t
val portfolio_checkpoint_of_json : Nocmap_persist.Json.t -> Portfolio.checkpoint
val decompose_checkpoint_json : Decompose.checkpoint -> Nocmap_persist.Json.t
val decompose_checkpoint_of_json : Nocmap_persist.Json.t -> Decompose.checkpoint
(** Every leg state in either checkpoint goes through one codec,
    [{"state": tag, "value": ...}] with the disjoint tags
    [sa|tabu|ga|ls|done]. *)
