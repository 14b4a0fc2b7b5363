(* Observability layer: metrics registry, span timer, series, sinks —
   plus the simulator/search metric invariants promised by their
   interfaces (per-link busy bounded by texec, delivered + dropped
   accounting under faults, monotone quantiles, non-increasing
   convergence traces). *)

module Metrics = Nocmap_obs.Metrics
module Timer = Nocmap_obs.Timer
module Series = Nocmap_obs.Series
module Sink = Nocmap_obs.Sink
module Mesh = Nocmap_noc.Mesh
module Crg = Nocmap_noc.Crg
module Fault = Nocmap_noc.Fault
module Cdcg = Nocmap_model.Cdcg
module Noc_params = Nocmap_energy.Noc_params
module Technology = Nocmap_energy.Technology
module Wormhole = Nocmap_sim.Wormhole
module Hotspot = Nocmap_sim.Hotspot
module Trace = Nocmap_sim.Trace
module Rng = Nocmap_util.Rng
module Mapping = Nocmap_mapping
module Generator = Nocmap_tgff.Generator

let params = Noc_params.make ~flit_bits:8 ()

(* --- registry --- *)

let test_disabled_is_noop () =
  let c = Metrics.counter "test.noop_counter" in
  let g = Metrics.gauge "test.noop_gauge" in
  let h = Metrics.histogram "test.noop_hist" in
  Metrics.with_enabled false (fun () ->
      Metrics.incr c;
      Metrics.add c 41;
      Metrics.set_gauge g 7;
      Metrics.set_max g 9;
      Metrics.observe h 3.0);
  Alcotest.(check int) "counter untouched" 0 (Metrics.counter_value c);
  Alcotest.(check int) "gauge untouched" 0 (Metrics.gauge_value g);
  Alcotest.(check int) "histogram untouched" 0 (Metrics.histogram_count h)

let test_counter_and_gauge () =
  let c = Metrics.counter ~help:"test" "test.counter" in
  let g = Metrics.gauge "test.gauge" in
  Metrics.with_enabled true (fun () ->
      Metrics.incr c;
      Metrics.add c 9;
      Metrics.set_gauge g 5;
      Metrics.set_max g 3;
      (* lower: kept *)
      Metrics.set_max g 8 (* higher: taken *));
  Alcotest.(check int) "counter" 10 (Metrics.counter_value c);
  Alcotest.(check int) "gauge high-water" 8 (Metrics.gauge_value g);
  (match Metrics.with_enabled true (fun () -> Metrics.add c (-1)) with
  | () -> Alcotest.fail "negative add accepted"
  | exception Invalid_argument _ -> ());
  (* Registration is idempotent; a kind clash is refused. *)
  Alcotest.(check bool) "same object" true (c == Metrics.counter "test.counter");
  match Metrics.gauge "test.counter" with
  | _ -> Alcotest.fail "kind clash accepted"
  | exception Invalid_argument _ -> ()

let test_histogram_quantiles () =
  let h = Metrics.histogram ~buckets:[| 1.0; 2.0; 4.0; 8.0 |] "test.hist" in
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Metrics.quantile h 0.5));
  Metrics.with_enabled true (fun () ->
      List.iter (Metrics.observe h) [ 0.5; 1.5; 1.6; 3.0; 3.5; 100.0 ]);
  Alcotest.(check int) "count" 6 (Metrics.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 110.1 (Metrics.histogram_sum h);
  Alcotest.(check (float 0.0)) "p50 in the 2.0 bucket" 2.0 (Metrics.quantile h 0.5);
  Alcotest.(check (float 0.0)) "overflow observation -> infinity" infinity
    (Metrics.quantile h 1.0);
  match Metrics.quantile h 1.5 with
  | _ -> Alcotest.fail "out-of-range quantile accepted"
  | exception Invalid_argument _ -> ()

let test_snapshot_sorted_and_reset () =
  let c = Metrics.counter "test.zz_last" in
  Metrics.with_enabled true (fun () -> Metrics.incr c);
  let names = List.map (fun s -> s.Metrics.name) (Metrics.snapshot ()) in
  Alcotest.(check (list string)) "sorted by name" (List.sort compare names) names;
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Metrics.counter_value c);
  Alcotest.(check bool) "reset keeps registration" true
    (List.mem "test.zz_last" (List.map (fun s -> s.Metrics.name) (Metrics.snapshot ())))

(* --- timer --- *)

let test_timer_disabled_passthrough () =
  Timer.reset ();
  let r = Timer.time "invisible" (fun () -> 42) in
  Alcotest.(check int) "value" 42 r;
  Alcotest.(check int) "no span recorded" 0 (List.length (Timer.tree ()))

let test_timer_nesting () =
  Timer.reset ();
  Metrics.with_enabled true (fun () ->
      Timer.time "outer" (fun () ->
          Timer.time "inner" (fun () -> ());
          Timer.time "inner" (fun () -> ());
          Timer.time "other" (fun () -> ()));
      Timer.time "outer" (fun () -> ()));
  match Timer.tree () with
  | [ outer ] ->
    Alcotest.(check string) "root" "outer" outer.Timer.span_name;
    Alcotest.(check int) "outer calls" 2 outer.Timer.calls;
    Alcotest.(check (list string)) "children in execution order" [ "inner"; "other" ]
      (List.map (fun s -> s.Timer.span_name) outer.Timer.children);
    Alcotest.(check int) "inner calls" 2
      (List.hd outer.Timer.children).Timer.calls;
    Alcotest.(check bool) "wall time accumulated" true
      (outer.Timer.wall_seconds >= 0.0)
  | t -> Alcotest.fail (Printf.sprintf "expected one root, got %d" (List.length t))

let test_timer_exception_safe () =
  Timer.reset ();
  Metrics.with_enabled true (fun () ->
      (try Timer.time "boom" (fun () -> failwith "x") with Failure _ -> ());
      Timer.time "after" (fun () -> ()));
  let roots = List.map (fun s -> s.Timer.span_name) (Timer.tree ()) in
  (* The raising span is still closed and recorded; the next span is a
     sibling, not a child of the leaked frame. *)
  Alcotest.(check (list string)) "spans" [ "boom"; "after" ] roots

(* --- series --- *)

let test_series () =
  let s = Series.create ~x_label:"evals" ~y_label:"cost" () in
  Alcotest.(check (option (pair (float 0.0) (float 0.0)))) "empty last" None
    (Series.last s);
  for i = 1 to 40 do
    Series.add s ~x:(float_of_int i) ~y:(float_of_int (100 - i))
  done;
  Alcotest.(check int) "length" 40 (Series.length s);
  Alcotest.(check (option (pair (float 0.0) (float 0.0)))) "last" (Some (40.0, 60.0))
    (Series.last s);
  let csv = Series.to_csv s in
  Test_util.check_contains ~msg:"header" ~needle:"evals,cost" csv;
  Alcotest.(check int) "rows" 41
    (List.length (String.split_on_char '\n' (String.trim csv)));
  Series.clear s;
  Alcotest.(check int) "cleared" 0 (Series.length s)

(* --- sinks --- *)

let test_sink_formats () =
  (match Sink.format_of_string "json" with
  | Ok `Json -> ()
  | _ -> Alcotest.fail "json not parsed");
  (match Sink.format_of_string "yaml" with
  | Error msg -> Test_util.check_contains ~msg:"names the input" ~needle:"yaml" msg
  | Ok _ -> Alcotest.fail "yaml accepted");
  Metrics.reset ();
  let c = Metrics.counter ~help:"demo counter" "test.sink_counter" in
  let h = Metrics.histogram ~buckets:[| 2.0; 4.0 |] "test.sink_hist" in
  Metrics.with_enabled true (fun () ->
      Metrics.add c 3;
      Metrics.observe h 1.0;
      Metrics.observe h 9.0);
  let samples =
    List.filter
      (fun s -> String.length s.Metrics.name >= 5 && String.sub s.Metrics.name 0 5 = "test.")
      (Metrics.snapshot ())
  in
  let table = Sink.metrics `Table samples in
  Test_util.check_contains ~msg:"table names" ~needle:"test.sink_counter" table;
  Test_util.check_contains ~msg:"table help" ~needle:"demo counter" table;
  let json = Sink.metrics `Json samples in
  String.split_on_char '\n' (String.trim json)
  |> List.iter (fun line ->
         Alcotest.(check bool)
           (Printf.sprintf "json line shape: %s" line)
           true
           (String.length line > 1 && line.[0] = '{' && line.[String.length line - 1] = '}'));
  Test_util.check_contains ~msg:"overflow quantile quoted" ~needle:"\"inf\"" json;
  let csv = Sink.metrics `Csv samples in
  Test_util.check_contains ~msg:"csv header" ~needle:"name,kind,value,count,sum" csv

let test_sink_spans () =
  Timer.reset ();
  Metrics.with_enabled true (fun () ->
      Timer.time "a" (fun () -> Timer.time "b" (fun () -> ())));
  let csv = Sink.spans `Csv (Timer.tree ()) in
  Test_util.check_contains ~msg:"nested path" ~needle:"a/b" csv;
  let table = Sink.spans `Table (Timer.tree ()) in
  Test_util.check_contains ~msg:"indented child" ~needle:"  b" table

(* An SA-only run touches the simulator and the annealer; the serve,
   portfolio, decompose and persist metrics stay at zero and must not
   appear in the report, in any format. *)
let test_report_skips_idle_metrics () =
  Metrics.reset ();
  Timer.reset ();
  let mesh = Mesh.create ~cols:2 ~rows:2 in
  let crg = Crg.create mesh in
  let cdcg = Nocmap_apps.Fig1.cdcg in
  let objective =
    Mapping.Objective.cdcm ~tech:Technology.t007 ~params ~crg ~cdcg ()
  in
  Metrics.with_enabled true (fun () ->
      ignore
        (Mapping.Annealing.search ~rng:(Rng.create ~seed:3)
           ~config:(Mapping.Annealing.quick_config ~tiles:4)
           ~tiles:4 ~objective ~cores:(Cdcg.core_count cdcg) ()));
  List.iter
    (fun format ->
      let report = Sink.report format in
      Test_util.check_contains ~msg:"simulator runs reported" ~needle:"sim.runs"
        report;
      List.iter
        (fun idle ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: no %s rows" (Sink.format_to_string format) idle)
            false
            (Test_util.contains_substring ~needle:idle report))
        [ "serve."; "search.portfolio."; "search.decompose."; "persist." ])
    [ `Table; `Json; `Csv ];
  Metrics.reset ()

(* --- simulator metric invariants --- *)

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
      Generator.default_spec ~name:"obs" ~cores ~packets
        ~total_bits:(max packets (packets * 60))
    in
    let cdcg = Generator.generate rng spec in
    let placement = Nocmap_mapping.Placement.random rng ~cores ~tiles in
    return (mesh, cdcg, placement))

let prop_link_busy_bounded =
  QCheck2.Test.make ~name:"per-link busy cycles never exceed texec"
    ~count:(Test_util.prop_count 100) gen_scenario (fun (mesh, cdcg, placement) ->
      let crg = Crg.create mesh in
      let meter = Wormhole.Meter.create ~crg in
      let s = Wormhole.run_summary ~meter ~params ~crg ~placement cdcg in
      Array.for_all
        (fun busy -> busy <= s.Wormhole.texec_cycles)
        (Wormhole.Meter.link_busy_cycles meter))

let prop_meter_matches_trace_loads =
  QCheck2.Test.make ~name:"meter heatmap equals trace-annotation heatmap"
    ~count:(Test_util.prop_count 100) gen_scenario (fun (mesh, cdcg, placement) ->
      let crg = Crg.create mesh in
      let meter = Wormhole.Meter.create ~crg in
      let trace = Wormhole.run ~meter ~params ~crg ~placement cdcg in
      let by_link loads =
        List.sort
          (fun (a : Hotspot.link_load) b -> Int.compare a.Hotspot.link b.Hotspot.link)
          loads
        |> List.map (fun (l : Hotspot.link_load) ->
               (l.Hotspot.link, l.Hotspot.busy_cycles, l.Hotspot.packets))
      in
      let from_trace = by_link (Hotspot.link_loads ~crg trace) in
      let from_meter =
        by_link
          (Hotspot.link_loads_of_meter ~crg
             ~texec_cycles:trace.Trace.texec_cycles meter)
      in
      from_trace = from_meter)

let prop_router_stalls_sum_to_contention =
  QCheck2.Test.make ~name:"router stall cycles sum to contention_cycles"
    ~count:(Test_util.prop_count 100) gen_scenario (fun (mesh, cdcg, placement) ->
      let crg = Crg.create mesh in
      let meter = Wormhole.Meter.create ~crg in
      let s = Wormhole.run_summary ~meter ~params ~crg ~placement cdcg in
      Array.fold_left ( + ) 0 (Wormhole.Meter.router_stall_cycles meter)
      = s.Wormhole.contention_cycles)

let prop_fault_accounting =
  (* Under every single-link fault the packets partition exactly into
     delivered and dropped. *)
  QCheck2.Test.make ~name:"delivered + dropped = packets under single-link faults"
    ~count:(Test_util.prop_count 30) gen_scenario (fun (mesh, cdcg, placement) ->
      let n = Cdcg.packet_count cdcg in
      List.for_all
        (fun faults ->
          let crg = Crg.create ~faults mesh in
          let meter = Wormhole.Meter.create ~crg in
          let s = Wormhole.run_summary ~meter ~params ~crg ~placement cdcg in
          s.Wormhole.delivered_packets + s.Wormhole.dropped_packets = n)
        (Fault.single_link_scenarios mesh))

let prop_quantiles_monotone =
  QCheck2.Test.make ~name:"histogram quantiles are monotone in q"
    ~count:(Test_util.prop_count 100)
    QCheck2.Gen.(list_size (int_range 1 60) (float_bound_exclusive 5000.0))
    (fun observations ->
      Metrics.reset ();
      let h = Metrics.histogram "test.monotone_hist" in
      Metrics.with_enabled true (fun () -> List.iter (Metrics.observe h) observations);
      let qs = [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ] in
      let values = List.map (Metrics.quantile h) qs in
      List.for_all2 (fun a b -> a <= b) (List.filteri (fun i _ -> i < 7) values)
        (List.tl values))

let prop_convergence_non_increasing =
  QCheck2.Test.make ~name:"annealing convergence trace is non-increasing"
    ~count:(Test_util.prop_count 30) gen_scenario (fun (mesh, cdcg, _) ->
      let crg = Crg.create mesh in
      let tiles = Mesh.tile_count mesh in
      let cores = Cdcg.core_count cdcg in
      let objective =
        Mapping.Objective.cdcm ~tech:Technology.t007 ~params ~crg ~cdcg ()
      in
      let series = Series.create () in
      let result =
        Mapping.Annealing.search ~rng:(Rng.create ~seed:7)
          ~config:(Mapping.Annealing.quick_config ~tiles)
          ~tiles ~objective ~convergence:series ~cores ()
      in
      let pts = Series.points series in
      let ok = ref (Array.length pts > 0) in
      for i = 1 to Array.length pts - 1 do
        let x0, y0 = pts.(i - 1) and x1, y1 = pts.(i) in
        if not (x1 > x0 && y1 <= y0) then ok := false
      done;
      (* The trace ends at the reported best cost. *)
      (match Series.last series with
      | Some (_, y) -> if y <> result.Mapping.Objective.cost then ok := false
      | None -> ok := false);
      !ok)

let suite =
  ( "obs",
    [
      Alcotest.test_case "disabled collection is a no-op" `Quick test_disabled_is_noop;
      Alcotest.test_case "counter and gauge" `Quick test_counter_and_gauge;
      Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
      Alcotest.test_case "snapshot sorted, reset keeps registry" `Quick
        test_snapshot_sorted_and_reset;
      Alcotest.test_case "timer disabled passthrough" `Quick
        test_timer_disabled_passthrough;
      Alcotest.test_case "timer nesting" `Quick test_timer_nesting;
      Alcotest.test_case "timer exception safety" `Quick test_timer_exception_safe;
      Alcotest.test_case "series" `Quick test_series;
      Alcotest.test_case "sink formats" `Quick test_sink_formats;
      Alcotest.test_case "sink spans" `Quick test_sink_spans;
      Alcotest.test_case "report skips idle metrics" `Quick
        test_report_skips_idle_metrics;
      QCheck_alcotest.to_alcotest prop_link_busy_bounded;
      QCheck_alcotest.to_alcotest prop_meter_matches_trace_loads;
      QCheck_alcotest.to_alcotest prop_router_stalls_sum_to_contention;
      QCheck_alcotest.to_alcotest prop_fault_accounting;
      QCheck_alcotest.to_alcotest prop_quantiles_monotone;
      QCheck_alcotest.to_alcotest prop_convergence_non_increasing;
    ] )
