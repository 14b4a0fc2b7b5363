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
module Json = Nocmap_persist.Json
module Store = Nocmap_persist.Store

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

(* Checkpoint encoding of one scenario's evaluations.  The scenario
   itself is not stored: the scenario list is a pure function of the
   seed, so a resumed run rebuilds it and only replays the expensive
   degraded-CRG simulations. *)
let evaluation_json (e : Mapping.Cost_cdcm.evaluation) =
  Json.Assoc
    [
      ("dynamic", Json.float_ e.Mapping.Cost_cdcm.dynamic);
      ("static", Json.float_ e.Mapping.Cost_cdcm.static_);
      ("total", Json.float_ e.Mapping.Cost_cdcm.total);
      ("texec_ns", Json.float_ e.Mapping.Cost_cdcm.texec_ns);
      ("texec_cycles", Json.Int e.Mapping.Cost_cdcm.texec_cycles);
      ("contention_cycles", Json.Int e.Mapping.Cost_cdcm.contention_cycles);
      ("delivered_packets", Json.Int e.Mapping.Cost_cdcm.delivered_packets);
      ("dropped_packets", Json.Int e.Mapping.Cost_cdcm.dropped_packets);
      ("retries_total", Json.Int e.Mapping.Cost_cdcm.retries_total);
    ]

let evaluation_of_json j =
  {
    Mapping.Cost_cdcm.dynamic = Json.to_float (Json.get "dynamic" j);
    static_ = Json.to_float (Json.get "static" j);
    total = Json.to_float (Json.get "total" j);
    texec_ns = Json.to_float (Json.get "texec_ns" j);
    texec_cycles = Json.to_int (Json.get "texec_cycles" j);
    contention_cycles = Json.to_int (Json.get "contention_cycles" j);
    delivered_packets = Json.to_int (Json.get "delivered_packets" j);
    dropped_packets = Json.to_int (Json.get "dropped_packets" j);
    retries_total = Json.to_int (Json.get "retries_total" j);
  }

let scenario_payload_json s =
  Json.Assoc
    [
      ("unreachable_pairs", Json.Int s.unreachable_pairs);
      ("total_detour_links", Json.Int s.total_detour_links);
      ("cwm", evaluation_json s.cwm);
      ("cdcm", evaluation_json s.cdcm);
    ]

let scenario_of_payload ~scenario j =
  {
    scenario;
    unreachable_pairs = Json.to_int (Json.get "unreachable_pairs" j);
    total_detour_links = Json.to_int (Json.get "total_detour_links" j);
    cwm = evaluation_of_json (Json.get "cwm" j);
    cdcm = evaluation_of_json (Json.get "cdcm" j);
  }

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
  let scenario_arr = Array.of_list scenarios in
  (* Each scenario evaluation is RNG-free, so fanning out over [?pool]
     is bit-identical to the sequential sweep. *)
  let compute_scenario i =
    let scenario = scenario_arr.(i) in
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
  let stop_now () = match stop with Some f -> f () | None -> false in
  (* Scenario evaluations are deterministic, so checkpointing them is a
     plain memo: one shard per scenario, replayed on resume.  Once [stop]
     fires the placements are best-so-far rather than the converged ones,
     so nothing is memoized (the meta records the placements precisely so
     a stale shard would be rejected loudly rather than replayed). *)
  let evaluate_scenario i =
    match journal with
    | None -> compute_scenario i
    | Some _ when stop_now () -> compute_scenario i
    | Some j ->
      let scenario = scenario_arr.(i) in
      let meta =
        Json.Assoc
          [
            ("app", Json.Str cdcg.Cdcg.name);
            ("mesh", Json.Str (Mesh.to_string mesh));
            ("seed", Json.Int seed);
            ("scenario", Json.Str (Fault.to_string scenario));
            ( "cwm",
              Mapping.Search_persist.placement_json
                pair.Experiment.cwm_placement );
            ( "cdcm",
              Mapping.Search_persist.placement_json
                pair.Experiment.cdcm_placement );
          ]
      in
      let { Mapping.Search_persist.store; key; _ } =
        Mapping.Search_persist.sub j (Printf.sprintf "scn%03d" i)
      in
      let payload =
        Store.memoize store ~key
          ~meta
          (fun () -> scenario_payload_json (compute_scenario i))
      in
      scenario_of_payload ~scenario payload
  in
  let results =
    Timer.time "faults.scenarios" (fun () ->
        Domain_pool.map ?pool evaluate_scenario
          (Array.init (Array.length scenario_arr) Fun.id))
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
