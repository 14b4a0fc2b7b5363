module Mesh = Nocmap_noc.Mesh
module Crg = Nocmap_noc.Crg
module Fault = Nocmap_noc.Fault
module Cdcg = Nocmap_model.Cdcg
module Technology = Nocmap_energy.Technology
module Wormhole = Nocmap_sim.Wormhole
module Mapping = Nocmap_mapping
module Rng = Nocmap_util.Rng
module Tablefmt = Nocmap_util.Tablefmt
module Domain_pool = Nocmap_util.Domain_pool
module Timer = Nocmap_obs.Timer

type config = {
  experiment : Experiment.config;
  tech : Technology.t;
  multi_fault_k : int;
  multi_fault_count : int;
  fault_policy : Wormhole.fault_policy;
}

let default_config =
  {
    experiment = Experiment.quick_config;
    tech = Technology.t007;
    multi_fault_k = 2;
    multi_fault_count = 8;
    fault_policy = Wormhole.default_fault_policy;
  }

type scenario_result = {
  scenario : Fault.t;
  unreachable_pairs : int;
  total_detour_links : int;
  cwm : Mapping.Cost_cdcm.evaluation;
  cdcm : Mapping.Cost_cdcm.evaluation;
}

type mapping_report = {
  label : string;
  baseline : Mapping.Cost_cdcm.evaluation;
  energy_inflation : Robustness.spread;
  latency_inflation : Robustness.spread;
  dropped : Robustness.spread;
}

type t = {
  app : string;
  mesh : Mesh.t;
  seed : int;
  scenarios : scenario_result list;
  cwm_report : mapping_report;
  cdcm_report : mapping_report;
}

let inflation_percent ~baseline value =
  if baseline = 0.0 then 0.0 else (value -. baseline) /. baseline *. 100.0

let report ~label ~(baseline : Mapping.Cost_cdcm.evaluation) scenarios select =
  let evals = List.map select scenarios in
  {
    label;
    baseline;
    energy_inflation =
      Robustness.spread_of
        (List.map
           (fun (e : Mapping.Cost_cdcm.evaluation) ->
             inflation_percent ~baseline:baseline.Mapping.Cost_cdcm.total
               e.Mapping.Cost_cdcm.total)
           evals);
    latency_inflation =
      Robustness.spread_of
        (List.map
           (fun (e : Mapping.Cost_cdcm.evaluation) ->
             inflation_percent ~baseline:baseline.Mapping.Cost_cdcm.texec_ns
               e.Mapping.Cost_cdcm.texec_ns)
           evals);
    dropped =
      Robustness.spread_of
        (List.map
           (fun (e : Mapping.Cost_cdcm.evaluation) ->
             float_of_int e.Mapping.Cost_cdcm.dropped_packets)
           evals);
  }

let run ?(config = default_config) ?pool ?stop ?journal ~mesh ~seed cdcg =
  let rng = Rng.create ~seed in
  (* Pre-split the substreams in a fixed order so the search and the
     scenario sampling never race on the parent generator. *)
  let search_rng = Rng.split rng in
  let sample_rng = Rng.split rng in
  let pair =
    Timer.time "faults.optimize" (fun () ->
        Experiment.optimize_pair ?pool ?stop
          ?journal:(Option.map (fun j -> Mapping.Search_persist.sub j "optimize") journal)
          ~rng:search_rng ~config:config.experiment ~mesh ~tech:config.tech
          cdcg)
  in
  let params = config.experiment.Experiment.params in
  let tech = config.tech in
  let fault_free = pair.Experiment.pair_crg in
  let baseline placement =
    Mapping.Cost_cdcm.evaluate ~fault_policy:config.fault_policy ~tech ~params
      ~crg:fault_free ~cdcg placement
  in
  let cwm_baseline, cdcm_baseline =
    Timer.time "faults.baselines" (fun () ->
        ( baseline pair.Experiment.cwm_placement,
          baseline pair.Experiment.cdcm_placement ))
  in
  let scenarios =
    Fault.single_link_scenarios mesh
    @
    if config.multi_fault_count = 0 then []
    else
      Fault.sample_link_scenarios ~rng:sample_rng ~k:config.multi_fault_k
        ~count:config.multi_fault_count mesh
  in
  (* Each scenario evaluation is RNG-free, so fanning out over [?pool]
     is bit-identical to the sequential sweep.  It is also cheaper than
     reading a recorded result back, so a resumed campaign recomputes
     the whole sweep and [?journal] covers only the two searches. *)
  let evaluate_scenario scenario =
    let crg = Crg.create ~faults:scenario mesh in
    let eval placement =
      Mapping.Cost_cdcm.evaluate ~fault_policy:config.fault_policy ~tech ~params
        ~crg ~cdcg placement
    in
    {
      scenario;
      unreachable_pairs = List.length (Crg.unreachable_pairs crg);
      total_detour_links = Crg.total_detour_links crg;
      cwm = eval pair.Experiment.cwm_placement;
      cdcm = eval pair.Experiment.cdcm_placement;
    }
  in
  let results =
    Timer.time "faults.scenarios" (fun () ->
        Domain_pool.map ?pool evaluate_scenario (Array.of_list scenarios))
  in
  let scenarios = Array.to_list results in
  {
    app = cdcg.Cdcg.name;
    mesh;
    seed;
    scenarios;
    cwm_report =
      report ~label:"CWM" ~baseline:cwm_baseline scenarios (fun s -> s.cwm);
    cdcm_report =
      report ~label:"CDCM" ~baseline:cdcm_baseline scenarios (fun s -> s.cdcm);
  }

let worst_by scenarios measure =
  List.fold_left
    (fun acc s ->
      match acc with
      | None -> Some s
      | Some best -> if measure s > measure best then Some s else acc)
    None scenarios

let render t =
  let table =
    Tablefmt.create
      ~title:
        (Printf.sprintf
           "Fault campaign - %s on %s (%d scenarios, seed %d)" t.app
           (Mesh.to_string t.mesh)
           (List.length t.scenarios)
           t.seed)
      ~columns:
        [
          ("mapping", Tablefmt.Left);
          ("metric", Tablefmt.Left);
          ("mean", Tablefmt.Right);
          ("stddev", Tablefmt.Right);
          ("min", Tablefmt.Right);
          ("max", Tablefmt.Right);
        ]
      ()
  in
  let rows (r : mapping_report) =
    let row metric (s : Robustness.spread) fmt =
      Tablefmt.add_row table
        [
          r.label;
          metric;
          Printf.sprintf fmt s.Robustness.mean;
          Printf.sprintf fmt s.Robustness.stddev;
          Printf.sprintf fmt s.Robustness.minimum;
          Printf.sprintf fmt s.Robustness.maximum;
        ]
    in
    row "energy inflation %" r.energy_inflation "%.2f";
    row "latency inflation %" r.latency_inflation "%.2f";
    row "dropped packets" r.dropped "%.1f"
  in
  rows t.cwm_report;
  rows t.cdcm_report;
  (match worst_by t.scenarios (fun s -> s.cdcm.Mapping.Cost_cdcm.total) with
  | None -> ()
  | Some w ->
    Tablefmt.add_summary_row table
      [
        "worst";
        Fault.to_string w.scenario;
        "";
        "";
        "";
        Printf.sprintf "%.3g J" w.cdcm.Mapping.Cost_cdcm.total;
      ]);
  Tablefmt.render table

let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "scenario,faults,unreachable_pairs,total_detour_links,cwm_total_j,cwm_texec_ns,cwm_dropped,cwm_retries,cdcm_total_j,cdcm_texec_ns,cdcm_dropped,cdcm_retries\n";
  List.iter
    (fun s ->
      let e = s.cwm and d = s.cdcm in
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%d,%d,%.6g,%.6g,%d,%d,%.6g,%.6g,%d,%d\n"
           (Nocmap_util.Csv.field (Fault.to_string s.scenario))
           (Fault.fault_count s.scenario)
           s.unreachable_pairs s.total_detour_links e.Mapping.Cost_cdcm.total
           e.Mapping.Cost_cdcm.texec_ns e.Mapping.Cost_cdcm.dropped_packets
           e.Mapping.Cost_cdcm.retries_total d.Mapping.Cost_cdcm.total
           d.Mapping.Cost_cdcm.texec_ns d.Mapping.Cost_cdcm.dropped_packets
           d.Mapping.Cost_cdcm.retries_total))
    t.scenarios;
  Buffer.contents buf
