module Crg = Nocmap_noc.Crg
module Cdcg = Nocmap_model.Cdcg
module Rng = Nocmap_util.Rng

let make ~tech ~params ~crg ~cdcg ~alpha ~reference =
  if alpha < 0.0 || alpha > 1.0 then
    invalid_arg "Weighted.make: alpha must lie in [0, 1]";
  let scratch = Nocmap_sim.Wormhole.Scratch.create ~params ~crg cdcg in
  let base = Cost_cdcm.evaluate ~scratch ~tech ~params ~crg ~cdcg reference in
  let e0 = Float.max base.Cost_cdcm.total epsilon_float in
  let t0 = Float.max base.Cost_cdcm.texec_ns epsilon_float in
  {
    Objective.name = Printf.sprintf "weighted-%.2f" alpha;
    cost_fn =
      (fun placement ->
        let e = Cost_cdcm.evaluate ~scratch ~tech ~params ~crg ~cdcg placement in
        (alpha *. e.Cost_cdcm.total /. e0)
        +. ((1.0 -. alpha) *. e.Cost_cdcm.texec_ns /. t0));
    (* The two normalized terms pull the cutoff in different units; no
       single simulation budget bounds the blend, so no early abandon. *)
    bound_fn = None;
  }

let pareto_sweep ~rng ~config ~tech ~params ~crg ~cdcg ~alphas =
  let tiles = Crg.tile_count crg in
  let cores = Cdcg.core_count cdcg in
  let reference = Placement.random rng ~cores ~tiles in
  List.map
    (fun alpha ->
      let objective = make ~tech ~params ~crg ~cdcg ~alpha ~reference in
      let result =
        Annealing.search ~rng:(Rng.split rng) ~config ~tiles ~objective ~cores ()
      in
      (alpha, Cost_cdcm.evaluate ~tech ~params ~crg ~cdcg result.Objective.placement))
    alphas
