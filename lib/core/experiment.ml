module Rng = Nocmap_util.Rng
module Mesh = Nocmap_noc.Mesh
module Crg = Nocmap_noc.Crg
module Cdcg = Nocmap_model.Cdcg
module Cwg = Nocmap_model.Cwg
module Noc_params = Nocmap_energy.Noc_params
module Technology = Nocmap_energy.Technology
module Mapping = Nocmap_mapping
module Domain_pool = Nocmap_util.Domain_pool
module Timer = Nocmap_obs.Timer

type budget =
  | Quick
  | Standard
  | Thorough

type config = {
  budget : budget;
  restarts : int;
  params : Noc_params.t;
  tech_low : Technology.t;
  tech_high : Technology.t;
}

let default_config =
  {
    budget = Standard;
    restarts = 2;
    params = Noc_params.paper_example;
    tech_low = Technology.t035;
    tech_high = Technology.t007;
  }

let quick_config = { default_config with budget = Quick; restarts = 1 }

(* Scopes nest with dots; the final shard key names one search leg,
   e.g. "t2-03-4x4-app2.cdcm-0.07u.leg1". *)
let sub journal name = Option.map (fun j -> Mapping.Search_persist.sub j name) journal

type outcome = {
  app : string;
  mesh : Mesh.t;
  cwm_low : Mapping.Cost_cdcm.evaluation;
  cwm_high : Mapping.Cost_cdcm.evaluation;
  cdcm_low : Mapping.Cost_cdcm.evaluation;
  cdcm_high : Mapping.Cost_cdcm.evaluation;
  etr_percent : float;
  ecs_low_percent : float;
  ecs_high_percent : float;
  cwm_cpu_seconds : float;
  cdcm_cpu_seconds : float;
  cwm_evaluations : int;
  cdcm_evaluations : int;
}

(* Pruning margin for simulation-backed objectives: a candidate proved
   worse than [current + 20 * T] would survive the Metropolis test with
   probability < exp(-20) ~ 2e-9, so its simulation is cut off early. *)
let prune_margin = Some 20.0

let sa_config config ~tiles =
  match config.budget with
  | Quick ->
    { (Mapping.Annealing.quick_config ~tiles) with
      Mapping.Annealing.prune = prune_margin }
  | Standard ->
    {
      Mapping.Annealing.initial_temperature = `Auto;
      cooling = 0.95;
      moves_per_temperature = 8 * tiles;
      patience = 12;
      (* larger NoCs need proportionally more moves to converge *)
      max_evaluations = max 30_000 (350 * tiles);
      prune = prune_margin;
    }
  | Thorough ->
    {
      Mapping.Annealing.initial_temperature = `Auto;
      cooling = 0.975;
      moves_per_temperature = 40 * tiles;
      patience = 25;
      max_evaluations = 250_000;
      prune = prune_margin;
    }

let reduction = Nocmap_util.Stats.reduction_percent

(* Best of [restarts] annealing descents; returns the result plus CPU
   seconds and total evaluations.  CWM cost evaluations are orders of
   magnitude cheaper than CDCM simulations, so the CWM legs get a
   proportionally larger budget — matching how the models would be used
   in practice and keeping the CWM baseline honestly converged.

   [make_objective] is a factory rather than an objective because
   simulation-backed objectives carry a private scratch arena and are
   not thread-safe: each restart builds its own.  Restarts run on
   [?pool] when given; the RNG substreams are split in restart order
   before any task is dispatched, so the pooled run is bit-identical to
   the sequential one. *)
let multi_start ?(budget_scale = 1) ?warm_start ?pool ?stop ?journal ~rng
    ~config ~tiles ~cores make_objective =
  let sa = sa_config config ~tiles in
  let sa =
    {
      sa with
      Mapping.Annealing.moves_per_temperature =
        sa.Mapping.Annealing.moves_per_temperature * budget_scale;
      max_evaluations = sa.Mapping.Annealing.max_evaluations * budget_scale;
      patience = sa.Mapping.Annealing.patience + (budget_scale / 2);
    }
  in
  let restarts = max 1 config.restarts in
  let t0 = Sys.time () in
  let rngs = Array.make restarts rng in
  for i = 0 to restarts - 1 do
    rngs.(i) <- Rng.split rng
  done;
  let leg i =
    (* The last restart is warm-started when a seed placement is
       given (the CWM winner): the CDCM search then never returns a
       mapping worse than the CWM one under its own objective. *)
    let initial = if i = restarts - 1 then warm_start else None in
    let objective = make_objective () in
    Mapping.Search_persist.annealing
      ?journal:(sub journal (Printf.sprintf "leg%d" i))
      ~rng:rngs.(i) ~config:sa ~tiles ~objective ?initial ?stop ~cores ()
  in
  let results = Domain_pool.map ?pool leg (Array.init restarts Fun.id) in
  let best = ref results.(0) in
  let evals = ref 0 in
  Array.iteri
    (fun i (r : Mapping.Objective.search_result) ->
      evals := !evals + r.Mapping.Objective.evaluations;
      if i > 0 && r.Mapping.Objective.cost < !best.Mapping.Objective.cost then
        best := r)
    results;
  (!best, Sys.time () -. t0, !evals)

type mapped_pair = {
  pair_crg : Crg.t;
  cwm_placement : Mapping.Placement.t;
  cdcm_placement : Mapping.Placement.t;
}

(* Memoize a simulation-backed objective behind the path-exact symmetry
   group of its CRG.  The cache is built inside the factory so every
   restart (and thus every pool worker) owns a private one — caching is
   a per-domain concern exactly like the simulation arena. *)
let cached_factory ~symmetry ~cores make_objective () =
  let objective = make_objective () in
  let cache =
    Mapping.Eval_cache.create ~symmetry ~cores
      ~discriminator:objective.Mapping.Objective.name ()
  in
  Mapping.Objective.with_cache cache objective

(* The CWM and CDCM winners at one technology point, searched on the
   fault-free CRG — the mappings a fault campaign then stresses. *)
let optimize_pair ?pool ?stop ?journal ~rng ~config ~mesh ~tech cdcg =
  let crg = Crg.create mesh in
  let tiles = Mesh.tile_count mesh in
  let cores = Cdcg.core_count cdcg in
  if cores > tiles then invalid_arg "Experiment.optimize_pair: more cores than tiles";
  let cwg = Cwg.of_cdcg cdcg in
  let params = config.params in
  let cwm_best, _, _ =
    Timer.time "cwm_search" (fun () ->
        multi_start ~budget_scale:8 ?pool ?stop
          ?journal:(sub journal "cwm") ~rng ~config ~tiles ~cores
          (fun () -> Mapping.Objective.cwm ~tech ~crg ~cwg))
  in
  let symmetry =
    Nocmap_noc.Symmetry.of_crg ~level:Nocmap_noc.Symmetry.Paths crg
  in
  let cdcm_best, _, _ =
    Timer.time "cdcm_search" (fun () ->
        multi_start ~warm_start:cwm_best.Mapping.Objective.placement ?pool ?stop
          ?journal:(sub journal "cdcm") ~rng ~config ~tiles ~cores
          (cached_factory ~symmetry ~cores (fun () ->
               Mapping.Objective.cdcm ~tech ~params ~crg ~cdcg ())))
  in
  {
    pair_crg = crg;
    cwm_placement = cwm_best.Mapping.Objective.placement;
    cdcm_placement = cdcm_best.Mapping.Objective.placement;
  }

let compare_models ?pool ?stop ?journal ~rng ~config ~mesh cdcg =
  let crg = Crg.create mesh in
  let tiles = Mesh.tile_count mesh in
  let cores = Cdcg.core_count cdcg in
  if cores > tiles then invalid_arg "Experiment.compare_models: more cores than tiles";
  let cwg = Cwg.of_cdcg cdcg in
  let params = config.params in
  let cwm_best, cwm_cpu_seconds, cwm_evaluations =
    Timer.time "cwm_search" (fun () ->
        multi_start ~budget_scale:8 ?pool ?stop
          ?journal:(sub journal "cwm") ~rng ~config ~tiles ~cores
          (fun () -> Mapping.Objective.cwm ~tech:config.tech_low ~crg ~cwg))
  in
  let symmetry =
    Nocmap_noc.Symmetry.of_crg ~level:Nocmap_noc.Symmetry.Paths crg
  in
  let cdcm_search tech =
    Timer.time "cdcm_search" (fun () ->
        multi_start ~warm_start:cwm_best.Mapping.Objective.placement ?pool ?stop
          ?journal:(sub journal ("cdcm-" ^ tech.Nocmap_energy.Technology.name))
          ~rng ~config ~tiles ~cores
          (cached_factory ~symmetry ~cores (fun () ->
               Mapping.Objective.cdcm ~tech ~params ~crg ~cdcg ())))
  in
  let cdcm_low_best, cpu_low, evals_low = cdcm_search config.tech_low in
  let cdcm_high_best, cpu_high, evals_high = cdcm_search config.tech_high in
  let evaluate tech placement =
    Mapping.Cost_cdcm.evaluate ~tech ~params ~crg ~cdcg placement
  in
  let cwm_low, cwm_high, cdcm_low, cdcm_high =
    Timer.time "final_evaluation" (fun () ->
        ( evaluate config.tech_low cwm_best.Mapping.Objective.placement,
          evaluate config.tech_high cwm_best.Mapping.Objective.placement,
          evaluate config.tech_low cdcm_low_best.Mapping.Objective.placement,
          evaluate config.tech_high cdcm_high_best.Mapping.Objective.placement ))
  in
  {
    app = cdcg.Cdcg.name;
    mesh;
    cwm_low;
    cwm_high;
    cdcm_low;
    cdcm_high;
    etr_percent =
      reduction ~baseline:cwm_high.Mapping.Cost_cdcm.texec_ns
        ~improved:cdcm_high.Mapping.Cost_cdcm.texec_ns;
    ecs_low_percent =
      reduction ~baseline:cwm_low.Mapping.Cost_cdcm.total
        ~improved:cdcm_low.Mapping.Cost_cdcm.total;
    ecs_high_percent =
      reduction ~baseline:cwm_high.Mapping.Cost_cdcm.total
        ~improved:cdcm_high.Mapping.Cost_cdcm.total;
    cwm_cpu_seconds;
    cdcm_cpu_seconds = cpu_low +. cpu_high;
    cwm_evaluations;
    cdcm_evaluations = evals_low + evals_high;
  }
