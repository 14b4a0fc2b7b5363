(** Regeneration of the paper's Table 2: "Average energy and execution
    time reductions for CWM and CDCM" — per NoC size, the average
    execution-time reduction (ETR) and the average energy-consumption
    savings at the old (ECS 0.35 um) and deep-submicron (ECS 0.07 um)
    technology points, with the global average as summary row. *)

type size_summary = {
  mesh : Nocmap_noc.Mesh.t;
  search_method : string;     (** "ES and SA" / "SA only", as in the paper. *)
  etr_percent : float;
  ecs_low_percent : float;
  ecs_high_percent : float;
  outcomes : Experiment.outcome list;
}

type t = {
  sizes : size_summary list;
  average_etr : float;
  average_ecs_low : float;
  average_ecs_high : float;
}

val run :
  ?config:Experiment.config ->
  ?progress:(string -> unit) ->
  ?instances:(Nocmap_noc.Mesh.t * Nocmap_model.Cdcg.t) list ->
  ?pool:Nocmap_util.Domain_pool.t ->
  ?stop:(unit -> bool) ->
  ?journal:Nocmap_mapping.Search_persist.journal ->
  seed:int ->
  unit ->
  t
(** Runs the full 18-application comparison (deterministic per seed).
    [?progress] receives one line per finished application;
    [?instances] substitutes a custom application list for the built-in
    suite (used by tests and ablations).  [?pool] fans the applications
    (and each one's annealing restarts) out across a domain pool —
    results are bit-identical to the sequential run for the same seed;
    progress lines are then emitted in suite order after the batch
    finishes rather than streamed.  [?stop] is polled inside every
    annealing descent so a signal handler can wind the whole table down
    to best-so-far results.  [?journal] checkpoints every search leg
    into one store scope per suite instance: rerunning over the same
    store resumes where a killed run stopped and reproduces the
    uninterrupted table bit-identically. *)

val render : t -> string

val run_and_render :
  ?config:Experiment.config ->
  ?progress:(string -> unit) ->
  ?pool:Nocmap_util.Domain_pool.t ->
  ?stop:(unit -> bool) ->
  ?journal:Nocmap_mapping.Search_persist.journal ->
  seed:int ->
  unit ->
  string
