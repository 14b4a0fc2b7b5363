(* Differential properties: independent implementations of the same
   quantity must agree.  Scratch-arena simulation vs fresh allocation,
   metrics-enabled vs metrics-disabled runs, the analytic critical path
   vs the simulator on contention-free traffic, pruned vs unpruned
   search objectives, and the simulator vs its event-time bound. *)

module Metrics = Nocmap_obs.Metrics
module Mesh = Nocmap_noc.Mesh
module Crg = Nocmap_noc.Crg
module Cdcg = Nocmap_model.Cdcg
module Noc_params = Nocmap_energy.Noc_params
module Technology = Nocmap_energy.Technology
module Wormhole = Nocmap_sim.Wormhole
module Analytic = Nocmap_sim.Analytic
module Rng = Nocmap_util.Rng
module Mapping = Nocmap_mapping
module Generator = Nocmap_tgff.Generator

let params = Noc_params.make ~flit_bits:8 ()

let gen_scenario =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* cols = int_range 2 4 in
    let* rows = int_range 2 4 in
    let mesh = Mesh.create ~cols ~rows in
    let tiles = Mesh.tile_count mesh in
    let rng = Rng.create ~seed in
    let* cores = int_range 2 (min 8 tiles) in
    let* packets = int_range 1 40 in
    let spec =
      Generator.default_spec ~name:"diff" ~cores ~packets
        ~total_bits:(max packets (packets * 60))
    in
    let cdcg = Generator.generate rng spec in
    let placement = Mapping.Placement.random rng ~cores ~tiles in
    return (mesh, cdcg, placement))

let summaries_equal (a : Wormhole.summary) (b : Wormhole.summary) = a = b

let prop_scratch_equals_fresh =
  QCheck2.Test.make ~name:"scratch arena run equals fresh-allocation run"
    ~count:(Test_util.prop_count 100) gen_scenario (fun (mesh, cdcg, placement) ->
      let crg = Crg.create mesh in
      let scratch = Wormhole.Scratch.create ~params ~crg cdcg in
      let fresh = Wormhole.run_summary ~params ~crg ~placement cdcg in
      let reused = Wormhole.run_summary ~scratch ~params ~crg ~placement cdcg in
      (* Run the scratch twice: reset bugs would show on the second use. *)
      let reused2 = Wormhole.run_summary ~scratch ~params ~crg ~placement cdcg in
      summaries_equal fresh reused && summaries_equal fresh reused2)

let prop_metrics_do_not_change_sim =
  QCheck2.Test.make ~name:"simulation is bit-identical with metrics on or off"
    ~count:(Test_util.prop_count 100) gen_scenario (fun (mesh, cdcg, placement) ->
      let crg = Crg.create mesh in
      let run () = Wormhole.run_summary ~params ~crg ~placement cdcg in
      let off = Metrics.with_enabled false run in
      let on_ = Metrics.with_enabled true run in
      let metered =
        let meter = Wormhole.Meter.create ~crg in
        Metrics.with_enabled true (fun () ->
            Wormhole.run_summary ~meter ~params ~crg ~placement cdcg)
      in
      summaries_equal off on_ && summaries_equal off metered)

let prop_metrics_do_not_change_search =
  QCheck2.Test.make ~name:"annealing result is identical with metrics on or off"
    ~count:(Test_util.prop_count 20) gen_scenario (fun (mesh, cdcg, _) ->
      let crg = Crg.create mesh in
      let tiles = Mesh.tile_count mesh in
      let cores = Cdcg.core_count cdcg in
      let objective =
        Mapping.Objective.cdcm ~tech:Technology.t007 ~params ~crg ~cdcg ()
      in
      let descend enabled =
        Metrics.with_enabled enabled (fun () ->
            Mapping.Annealing.search ~rng:(Rng.create ~seed:11)
              ~config:(Mapping.Annealing.quick_config ~tiles)
              ~tiles ~objective ~cores ())
      in
      let off = descend false and on_ = descend true in
      off.Mapping.Objective.placement = on_.Mapping.Objective.placement
      && off.Mapping.Objective.cost = on_.Mapping.Objective.cost
      && off.Mapping.Objective.evaluations = on_.Mapping.Objective.evaluations)

let prop_contention_free_matches_analytic =
  (* Whenever the simulator reports zero contention the analytic
     critical path is exact, not just a lower bound. *)
  QCheck2.Test.make ~name:"contention-free sim equals analytic critical path"
    ~count:(Test_util.prop_count 200) gen_scenario (fun (mesh, cdcg, placement) ->
      let crg = Crg.create mesh in
      let s = Wormhole.run_summary ~params ~crg ~placement cdcg in
      s.Wormhole.contention_cycles > 0
      ||
      let est = Analytic.estimate ~params ~crg ~placement cdcg in
      s.Wormhole.texec_cycles = est.Analytic.critical_path_cycles)

let prop_analytic_is_lower_bound =
  QCheck2.Test.make ~name:"analytic estimate never exceeds simulated texec"
    ~count:(Test_util.prop_count 100) gen_scenario (fun (mesh, cdcg, placement) ->
      let crg = Crg.create mesh in
      let s = Wormhole.run_summary ~params ~crg ~placement cdcg in
      let est = Analytic.estimate ~params ~crg ~placement cdcg in
      est.Analytic.lower_bound_cycles <= s.Wormhole.texec_cycles)

let prop_pruned_sa_cost_consistent =
  (* Cutoff pruning may only reject candidates; the cost reported for
     the returned placement must equal an exact re-evaluation. *)
  QCheck2.Test.make ~name:"pruned annealing reports the exact cost of its result"
    ~count:(Test_util.prop_count 20) gen_scenario (fun (mesh, cdcg, _) ->
      let crg = Crg.create mesh in
      let tiles = Mesh.tile_count mesh in
      let cores = Cdcg.core_count cdcg in
      let objective =
        Mapping.Objective.cdcm ~tech:Technology.t007 ~params ~crg ~cdcg ()
      in
      let config =
        { (Mapping.Annealing.quick_config ~tiles) with
          Mapping.Annealing.prune = Some 20.0
        }
      in
      let result =
        Mapping.Annealing.search ~rng:(Rng.create ~seed:23) ~config ~tiles
          ~objective ~cores ()
      in
      objective.Mapping.Objective.cost_fn result.Mapping.Objective.placement
      = result.Mapping.Objective.cost)

let prop_local_search_prune_lossless =
  (* The local-search bound check is an exact accept/reject test, so
     stripping the bound function must not change the trajectory. *)
  QCheck2.Test.make ~name:"local search with and without bound_fn is identical"
    ~count:(Test_util.prop_count 20) gen_scenario (fun (mesh, cdcg, placement) ->
      let crg = Crg.create mesh in
      let tiles = Mesh.tile_count mesh in
      let objective = Mapping.Objective.texec ~params ~crg ~cdcg in
      let unbounded = { objective with Mapping.Objective.bound_fn = None } in
      let run objective =
        Mapping.Local_search.search ~objective ~tiles ~initial:placement ()
      in
      let pruned = run objective and exact = run unbounded in
      pruned.Mapping.Objective.placement = exact.Mapping.Objective.placement
      && pruned.Mapping.Objective.cost = exact.Mapping.Objective.cost)

(* --- The event-time bound vs the simulator --- *)

module Fault = Nocmap_noc.Fault

(* Like [gen_scenario], but half the scenarios run on a CRG with a
   failed link (severed routes spend the retry budget), and the timing
   and buffering vary. *)
let gen_timed_scenario =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* cols = int_range 2 4 in
    let* rows = int_range 2 3 in
    let* faulty = bool in
    let* tr = int_range 1 3 in
    let* tl = int_range 1 3 in
    let* capacity = opt (int_range 1 4) in
    let mesh = Mesh.create ~cols ~rows in
    let tiles = Mesh.tile_count mesh in
    let rng = Rng.create ~seed in
    let crg =
      if faulty then
        match Fault.sample_link_scenarios ~rng ~k:1 ~count:1 mesh with
        | [ faults ] -> Crg.create ~faults mesh
        | _ -> Crg.create mesh
      else Crg.create mesh
    in
    let* cores = int_range 2 (min 7 tiles) in
    let* packets = int_range 1 30 in
    let spec =
      Generator.default_spec ~name:"bound-diff" ~cores ~packets
        ~total_bits:(max packets (packets * 60))
    in
    let cdcg = Generator.generate rng spec in
    let placement = Mapping.Placement.random rng ~cores ~tiles in
    let buffering = Option.map (fun c -> Noc_params.Bounded c) capacity in
    let params = Noc_params.make ~tr ~tl ~flit_bits:8 ?buffering () in
    return (crg, cdcg, placement, params))

(* A dependence chain on a 2x1 mesh serializes every activity, so the
   bound is the simulated time plus fixed per-packet slack: each packet
   simulates to [compute + tl + (tr + tl) + (tr + flits*tl)] = 114
   cycles, and the bound charges [compute + retries*backoff + tl +
   2*(tr + (bits/flit_bits + 1)*tl)] = 171. *)
let test_event_time_bound_of_a_chain () =
  let cdcg =
    match
      Nocmap_model.Textio.cdcg_of_string
        "application chain\n\
         cores a b\n\
         packet p0 a -> b compute 100 bits 64\n\
         packet p1 b -> a compute 100 bits 64\n\
         packet p2 a -> b compute 100 bits 64\n\
         dep p0 -> p1\n\
         dep p1 -> p2\n"
    with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let mesh = Mesh.create ~cols:2 ~rows:1 in
  let crg = Crg.create mesh in
  Alcotest.(check int) "simulated" (3 * 114)
    (Wormhole.texec_cycles ~params ~crg ~placement:[| 0; 1 |] cdcg);
  Alcotest.(check int) "bound" (3 * 171) (Wormhole.event_time_bound ~params ~mesh cdcg);
  Alcotest.(check bool) "within the limits" true
    (Wormhole.check_limits ~params ~mesh cdcg = Ok ())

let prop_texec_within_event_time_bound =
  QCheck2.Test.make
    ~name:"simulated texec never exceeds the event-time bound"
    ~count:(Test_util.prop_count 40) gen_timed_scenario
    (fun (crg, cdcg, placement, params) ->
      let bound = Wormhole.event_time_bound ~params ~mesh:(Crg.mesh crg) cdcg in
      match Wormhole.texec_cycles ~params ~crg ~placement cdcg with
      | texec -> texec <= bound
      | exception Wormhole.Deadlock _ -> true)

let suite =
  ( "differential",
    [
      QCheck_alcotest.to_alcotest prop_scratch_equals_fresh;
      QCheck_alcotest.to_alcotest prop_metrics_do_not_change_sim;
      QCheck_alcotest.to_alcotest prop_metrics_do_not_change_search;
      QCheck_alcotest.to_alcotest prop_contention_free_matches_analytic;
      QCheck_alcotest.to_alcotest prop_analytic_is_lower_bound;
      QCheck_alcotest.to_alcotest prop_pruned_sa_cost_consistent;
      QCheck_alcotest.to_alcotest prop_local_search_prune_lossless;
      Alcotest.test_case "event-time bound of a chain" `Quick
        test_event_time_bound_of_a_chain;
      QCheck_alcotest.to_alcotest prop_texec_within_event_time_bound;
    ] )
