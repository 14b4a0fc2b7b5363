module Mesh = Nocmap_noc.Mesh
module Crg = Nocmap_noc.Crg
module Symmetry = Nocmap_noc.Symmetry
module Cdcg = Nocmap_model.Cdcg
module Mapping = Nocmap_mapping
module Objective = Nocmap_mapping.Objective
module Eval_cache = Nocmap_mapping.Eval_cache

type report =
  | Plain
  | Portfolio of Mapping.Portfolio.report
  | Decompose of Mapping.Decompose.report

type outcome = {
  cdcg : Cdcg.t;
  result : Objective.search_result;
  evaluation : Mapping.Cost_cdcm.evaluation;
  report : report;
  cache : Eval_cache.t option;
}

(* Greedy+local journals its local-search leg under the same key as
   plain local search. *)
let shard_suffix : Job_spec.algorithm -> string option = function
  | Sa -> Some "sa"
  | Local | Greedy_local -> Some "local"
  | Portfolio _ -> Some "portfolio"
  | Decompose _ -> Some "decompose"
  | Greedy | Random | Es -> None

let journaled algorithm = Option.is_some (shard_suffix algorithm)

let journaled_algorithms =
  Job_spec.[ Sa; Local; Greedy; Greedy_local; Random; Es; Portfolio []; Decompose Sa ]
  |> List.filter journaled
  |> List.map Job_spec.algorithm_to_string

let parallel : Job_spec.algorithm -> bool = function
  | Portfolio _ | Decompose _ -> true
  | Sa | Local | Greedy | Greedy_local | Random | Es -> false

(* The one per-budget configuration table. *)
let quick (spec : Job_spec.t) = spec.budget = Job_spec.Quick

let execute ?journal ?pool ?convergence ~stop (spec : Job_spec.t) =
  Result.bind (Job_spec.resolve_app spec) @@ fun cdcg ->
  let crg = Crg.create ~routing:spec.routing spec.mesh in
  Nocmap_sim.Wormhole.check_routes crg
  |> Result.map @@ fun () ->
     let tech = spec.tech in
     let params = Job_spec.params spec in
     let cwg = Nocmap_model.Cwg.of_cdcg cdcg in
     let tiles = Mesh.tile_count spec.mesh in
     let cores = Cdcg.core_count cdcg in
     let rng = Nocmap_util.Rng.create ~seed:spec.seed in
     let name = Job_spec.model_to_string spec.model in
     let base () =
       match spec.model with
       | Job_spec.Cwm -> Objective.cwm ~tech ~crg ~cwg
       | Job_spec.Cdcm -> Objective.cdcm ~tech ~params ~crg ~cdcg ()
     in
     let cached c = Objective.with_cache c (base ()) in
     (* CWM only reads per-pair hop counts, so it may use the larger
        hop-exact group; the simulation-backed CDCM needs path-exact. *)
     let symmetry =
       lazy
         (Symmetry.of_crg crg
            ~level:(if spec.model = Job_spec.Cwm then Symmetry.Hops else Symmetry.Paths))
     in
     let private_cache ?support symmetry =
       Eval_cache.create ~symmetry ~cores ?support ~discriminator:name ()
     in
     (* The objective of a single-domain search, and the cache it reports. *)
     let used_cache = ref None in
     let objective () =
       let c = private_cache (Lazy.force symmetry) in
       used_cache := Some c;
       cached c
     in
     (* Every search owns its caches.  Racers and regions may run on
        distinct domains and Eval_cache is single-domain, so each gets a
        fresh objective and cache, all from one symmetry group forced
        here, on the calling domain. *)
     let fresh_objectives () =
       let symmetry = Lazy.force symmetry in
       fun () -> cached (private_cache symmetry)
     in
     (* A decompose region only moves its own cluster, so its cache keys
        just those cores (and drops the mesh group, which the frozen
        context breaks anyway): the dominant cache allocation shrinks by
        ~[cores / region] compared to a full-key cache per region. *)
     let region_objective_for ~cores:support ~tiles:_ =
       cached (private_cache ~support (Symmetry.identity_only spec.mesh))
     in
     let journal =
       match (journal, shard_suffix spec.algorithm) with
       | Some j, Some suffix -> Some (Mapping.Search_persist.sub j suffix)
       | _ -> None
     in
     let local_search initial =
       Mapping.Search_persist.local_search ?journal ~objective:(objective ()) ~tiles
         ~initial
         ?max_evaluations:(if quick spec then Some 10_000 else None)
         ~stop ?convergence ()
     in
     let result, report =
       match spec.algorithm with
       | Job_spec.Sa ->
         let config =
           if quick spec then Mapping.Annealing.quick_config ~tiles
           else Mapping.Annealing.default_config ~tiles
         in
         ( Mapping.Search_persist.annealing ?journal ~rng ~config ~tiles
             ~objective:(objective ()) ~stop ?convergence ~cores (),
           Plain )
       | Job_spec.Local -> (local_search (Mapping.Placement.random rng ~cores ~tiles), Plain)
       | Job_spec.Greedy_local ->
         (local_search (Mapping.Greedy.search ~tech ~crg ~cwg ()).placement, Plain)
       | Job_spec.Greedy -> (Mapping.Greedy.search ~tech ~crg ~cwg (), Plain)
       | Job_spec.Random ->
         ( Mapping.Random_search.search ~rng ~objective:(objective ()) ~cores ~tiles
             ~samples:(if quick spec then 100 else 1000),
           Plain )
       | Job_spec.Es ->
         let objective = objective () in
         ( Mapping.Exhaustive.search ~objective ~cores ~tiles ~symmetry:(Lazy.force symmetry)
             ?convergence (),
           Plain )
       | Job_spec.Portfolio strategies ->
         let fresh = fresh_objectives () in
         let config =
           if quick spec then Mapping.Portfolio.quick_config ~tiles
           else Mapping.Portfolio.default_config ~tiles
         in
         let r =
           Mapping.Search_persist.portfolio ?journal ~rng ~config ~strategies ~tech
             ~crg ~cwg ~objective_name:name
             ~objective_for:(fun _ -> fresh ())
             ?pool ~stop ()
         in
         (r.result, Portfolio r)
       | Job_spec.Decompose refiner ->
         let fresh = fresh_objectives () in
         let config =
           if quick spec then Mapping.Decompose.quick_config ~tiles
           else Mapping.Decompose.default_config ~tiles
         in
         let r =
           Mapping.Search_persist.decompose ?journal ~rng
             ~config:{ config with refiner } ~crg ~cwg ~objective_name:name
             ~objective_for:fresh ~region_objective_for ?pool ~stop ()
         in
         (r.result, Decompose r)
     in
     let evaluation =
       Mapping.Cost_cdcm.evaluate ~tech ~params ~crg ~cdcg result.Objective.placement
     in
     { cdcg; result; evaluation; report; cache = !used_cache }
