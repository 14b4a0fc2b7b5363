(* Fault scenarios, fault-aware CRG rerouting, and degraded wormhole
   execution. *)

module Mesh = Nocmap_noc.Mesh
module Link = Nocmap_noc.Link
module Fault = Nocmap_noc.Fault
module Crg = Nocmap_noc.Crg
module Routing = Nocmap_noc.Routing
module Rng = Nocmap_util.Rng
module Cdcg = Nocmap_model.Cdcg
module Noc_params = Nocmap_energy.Noc_params
module Technology = Nocmap_energy.Technology
module Wormhole = Nocmap_sim.Wormhole
module Trace = Nocmap_sim.Trace
module Mapping = Nocmap_mapping

let mesh3 = Mesh.create ~cols:3 ~rows:3
let params = Noc_params.paper_example

(* --- Fault construction and validation --- *)

let test_make_validates () =
  let f = Fault.make mesh3 ~links:[ Link.id mesh3 ~src:0 ~dst:1 ] in
  Alcotest.(check int) "one fault" 1 (Fault.fault_count f);
  Alcotest.(check bool) "not empty" false (Fault.is_empty f);
  Alcotest.(check bool) "empty scenario" true (Fault.is_empty (Fault.none mesh3));
  (* Tile 0 has no west neighbor: slot 4*0+West is not physical. *)
  Alcotest.(check bool) "non-physical slot rejected" true
    (match Fault.make mesh3 ~links:[ 3 ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "out-of-range router rejected" true
    (match Fault.make mesh3 ~routers:[ 9 ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* Duplicates collapse. *)
  let l = Link.id mesh3 ~src:4 ~dst:5 in
  let f = Fault.make mesh3 ~links:[ l; l ] ~routers:[ 2; 2 ] in
  Alcotest.(check (list int)) "links deduped" [ l ] (Fault.failed_links f);
  Alcotest.(check (list int)) "routers deduped" [ 2 ] (Fault.failed_routers f)

let test_router_implies_links () =
  let f = Fault.make mesh3 ~routers:[ 4 ] in
  (* Every link touching tile 4 (the center) is down... *)
  List.iter
    (fun peer ->
      Alcotest.(check bool)
        (Printf.sprintf "out-link 4->%d down" peer)
        true
        (Fault.link_down f (Link.id mesh3 ~src:4 ~dst:peer));
      Alcotest.(check bool)
        (Printf.sprintf "in-link %d->4 down" peer)
        true
        (Fault.link_down f (Link.id mesh3 ~src:peer ~dst:4)))
    [ 1; 3; 5; 7 ];
  (* ...but unrelated links are not. *)
  Alcotest.(check bool) "0->1 unaffected" false
    (Fault.link_down f (Link.id mesh3 ~src:0 ~dst:1));
  Alcotest.(check bool) "router 4 down" true (Fault.router_down f 4);
  Alcotest.(check bool) "router 0 alive" false (Fault.router_down f 0)

let test_scenario_generators () =
  let singles = Fault.single_link_scenarios mesh3 in
  Alcotest.(check int) "one scenario per physical link"
    (List.length (Link.all mesh3))
    (List.length singles);
  List.iter
    (fun s -> Alcotest.(check int) "single fault" 1 (Fault.fault_count s))
    singles;
  let sample seed =
    Fault.sample_link_scenarios ~rng:(Rng.create ~seed) ~k:3 ~count:5 mesh3
    |> List.map Fault.to_string
  in
  Alcotest.(check int) "sample count" 5 (List.length (sample 42));
  Alcotest.(check (list string)) "sampling deterministic" (sample 42) (sample 42);
  List.iter
    (fun s ->
      Alcotest.(check int) "k faults" 3 (Fault.fault_count s);
      Alcotest.(check bool) "comma-free for CSV" false
        (String.contains (Fault.to_string s) ','))
    (Fault.sample_link_scenarios ~rng:(Rng.create ~seed:1) ~k:3 ~count:5 mesh3);
  Alcotest.(check bool) "k = 0 rejected" true
    (match
       Fault.sample_link_scenarios ~rng:(Rng.create ~seed:1) ~k:0 ~count:1 mesh3
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check string) "fault-free rendering" "fault-free"
    (Fault.to_string (Fault.none mesh3))

(* --- CRG degradation --- *)

let test_empty_faults_bit_identical () =
  let plain = Crg.create mesh3 in
  let with_none = Crg.create ~faults:(Fault.none mesh3) mesh3 in
  for src = 0 to 8 do
    for dst = 0 to 8 do
      let a = Crg.path plain ~src ~dst and b = Crg.path with_none ~src ~dst in
      Alcotest.(check (list int))
        (Printf.sprintf "routers %d->%d" src dst)
        (Array.to_list a.Crg.routers) (Array.to_list b.Crg.routers);
      Alcotest.(check (list int))
        (Printf.sprintf "links %d->%d" src dst)
        (Array.to_list a.Crg.links) (Array.to_list b.Crg.links);
      Alcotest.(check bool) "classified intact" true
        (Crg.classify with_none ~src ~dst = Crg.Reachable 0)
    done
  done;
  Alcotest.(check int) "no detours" 0 (Crg.total_detour_links with_none);
  Alcotest.(check (list (pair int int))) "no unreachable pairs" []
    (Crg.unreachable_pairs with_none)

let test_reroute_detours () =
  let faults = Fault.make mesh3 ~links:[ Link.id mesh3 ~src:0 ~dst:1 ] in
  let crg = Crg.create ~faults mesh3 in
  (* 0->1 must take the long way round; its minimal surviving route has
     three links instead of one. *)
  (match Crg.classify crg ~src:0 ~dst:1 with
  | Crg.Reachable d -> Alcotest.(check int) "detour 0->1" 2 d
  | Crg.Unreachable -> Alcotest.fail "0->1 should be reachable");
  let p = Crg.path crg ~src:0 ~dst:1 in
  Alcotest.(check int) "rerouted hop count" 4 (Array.length p.Crg.routers);
  (* The reroute is a real walk on surviving links. *)
  Array.iteri
    (fun i l ->
      let s, d = Link.endpoints mesh3 l in
      Alcotest.(check int) "link src matches" p.Crg.routers.(i) s;
      Alcotest.(check int) "link dst matches" p.Crg.routers.(i + 1) d;
      Alcotest.(check bool) "link survives" false (Fault.link_down faults l))
    p.Crg.links;
  (* Pairs whose dimension-ordered route avoids the dead link keep it
     verbatim. *)
  let plain = Crg.create mesh3 in
  let a = Crg.path plain ~src:3 ~dst:8 and b = Crg.path crg ~src:3 ~dst:8 in
  Alcotest.(check (list int)) "untouched pair identical"
    (Array.to_list a.Crg.links) (Array.to_list b.Crg.links);
  (* XY sends 0->1 and 0->2 through the dead link (detour 2 each); the
     other rerouted pairs find equal-length alternatives (detour 0). *)
  Alcotest.(check int) "total detour" 4 (Crg.total_detour_links crg);
  Alcotest.(check int) "max detour" 2 (Crg.max_detour_links crg)

let test_unreachable_pairs () =
  let faults =
    Fault.make mesh3
      ~links:[ Link.id mesh3 ~src:0 ~dst:1; Link.id mesh3 ~src:0 ~dst:3 ]
  in
  let crg = Crg.create ~faults mesh3 in
  (* Tile 0 cannot send at all, but can still receive. *)
  Alcotest.(check bool) "0->8 unreachable" true
    (Crg.classify crg ~src:0 ~dst:8 = Crg.Unreachable);
  Alcotest.(check bool) "8->0 reachable" true (Crg.reachable crg ~src:8 ~dst:0);
  Alcotest.(check int) "empty path" 0
    (Array.length (Crg.path crg ~src:0 ~dst:8).Crg.routers);
  Alcotest.(check int) "router count 0" 0 (Crg.router_count_on_path crg ~src:0 ~dst:8);
  Alcotest.(check int) "eight severed pairs" 8
    (List.length (Crg.unreachable_pairs crg));
  Alcotest.(check bool) "self pair alive" true (Crg.reachable crg ~src:0 ~dst:0);
  (* The architecture digraph loses exactly the failed links. *)
  let g = Crg.to_digraph crg in
  Alcotest.(check int) "surviving edges"
    (List.length (Link.all mesh3) - 2)
    (Nocmap_graph.Digraph.edge_count g)

let test_fault_mesh_mismatch () =
  let other = Mesh.create ~cols:4 ~rows:4 in
  let faults = Fault.make other ~links:[ Link.id other ~src:0 ~dst:1 ] in
  Alcotest.(check bool) "wrong mesh rejected" true
    (match Crg.create ~faults mesh3 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* A wrap-only link slot is not physical under non-wrap routing. *)
  let wrap_faults =
    Fault.make ~wrap:true mesh3 ~links:[ Link.id ~wrap:true mesh3 ~src:0 ~dst:2 ]
  in
  Alcotest.(check bool) "wrap faults rejected under xy" true
    (match Crg.create ~faults:wrap_faults mesh3 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Degraded wormhole execution --- *)

(* A on tile 0 is cut off (both out-links dead); C->B survives. *)
let abc_cdcg =
  Cdcg.create_exn ~name:"abc"
    ~core_names:[| "A"; "B"; "C" |]
    ~packets:
      [|
        { Cdcg.src = 0; dst = 1; compute = 5; bits = 32; label = "pAB" };
        { Cdcg.src = 1; dst = 2; compute = 4; bits = 32; label = "pBC" };
        { Cdcg.src = 2; dst = 1; compute = 2; bits = 32; label = "pCB" };
      |]
    ~deps:[ (0, 1) ]

let severed_crg () =
  let faults =
    Fault.make mesh3
      ~links:[ Link.id mesh3 ~src:0 ~dst:1; Link.id mesh3 ~src:0 ~dst:3 ]
  in
  Crg.create ~faults mesh3

let test_drop_and_cascade () =
  let crg = severed_crg () in
  let placement = [| 0; 1; 2 |] in
  let trace = Wormhole.run ~params ~crg ~placement abc_cdcg in
  let policy = Wormhole.default_fault_policy in
  let p0 = trace.Trace.packets.(0) in
  (* pAB is severed: it burns the whole retry budget, then drops. *)
  Alcotest.(check int) "pAB delivered never" (-1) p0.Trace.delivered;
  Alcotest.(check int) "pAB retries" policy.Wormhole.max_retries p0.Trace.retries;
  Alcotest.(check int) "pAB drop time"
    (5 + (policy.Wormhole.max_retries * policy.Wormhole.retry_backoff))
    p0.Trace.dropped;
  (* pBC depends on pAB: cascade-dropped at the same instant, without
     spending retries of its own. *)
  let p1 = trace.Trace.packets.(1) in
  Alcotest.(check int) "pBC cascade drop time" p0.Trace.dropped p1.Trace.dropped;
  Alcotest.(check int) "pBC retries" 0 p1.Trace.retries;
  (* pCB has a healthy route and is delivered normally. *)
  let p2 = trace.Trace.packets.(2) in
  Alcotest.(check bool) "pCB delivered" true (p2.Trace.delivered > 0);
  Alcotest.(check int) "pCB not dropped" (-1) p2.Trace.dropped;
  Alcotest.(check int) "delivered count" 1 trace.Trace.delivered_packets;
  Alcotest.(check int) "dropped count" 2 trace.Trace.dropped_packets;
  Alcotest.(check int) "retry total" policy.Wormhole.max_retries
    trace.Trace.retries_total;
  Alcotest.(check int) "texec covers the drops"
    (max p0.Trace.dropped p2.Trace.delivered)
    trace.Trace.texec_cycles

let test_fault_policy () =
  let crg = severed_crg () in
  let placement = [| 0; 1; 2 |] in
  let fault_policy = { Wormhole.max_retries = 0; retry_backoff = 9 } in
  let s = Wormhole.run_summary ~fault_policy ~params ~crg ~placement abc_cdcg in
  Alcotest.(check int) "no retries spent" 0 s.Wormhole.retries_total;
  Alcotest.(check int) "still two drops" 2 s.Wormhole.dropped_packets;
  Alcotest.(check bool) "negative retries rejected" true
    (match
       Wormhole.run_summary
         ~fault_policy:{ Wormhole.max_retries = -1; retry_backoff = 1 }
         ~params ~crg ~placement abc_cdcg
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_scratch_matches_fresh_under_faults () =
  let crg = severed_crg () in
  let placement = [| 0; 1; 2 |] in
  let scratch = Wormhole.Scratch.create ~params ~crg abc_cdcg in
  let fresh = Wormhole.run_summary ~params ~crg ~placement abc_cdcg in
  let first = Wormhole.run_summary ~scratch ~params ~crg ~placement abc_cdcg in
  let second = Wormhole.run_summary ~scratch ~params ~crg ~placement abc_cdcg in
  Alcotest.(check bool) "scratch = fresh" true (fresh = first);
  Alcotest.(check bool) "scratch reusable" true (first = second)

let test_empty_faults_identical_traces () =
  let cdcg = Option.get (Nocmap_apps.Catalog.find "romberg-wide") in
  let placement = Mapping.Placement.identity ~cores:(Cdcg.core_count cdcg) in
  let plain = Wormhole.run ~params ~crg:(Crg.create mesh3) ~placement cdcg in
  let degraded =
    Wormhole.run ~params
      ~crg:(Crg.create ~faults:(Fault.none mesh3) mesh3)
      ~placement cdcg
  in
  Alcotest.(check bool) "whole trace identical" true (plain = degraded)

let test_unreachable_energy_skipped () =
  let crg = severed_crg () in
  let e =
    Mapping.Cost_cdcm.evaluate ~tech:Technology.t007 ~params ~crg
      ~cdcg:abc_cdcg [| 0; 1; 2 |]
  in
  Alcotest.(check int) "dropped surfaced" 2 e.Mapping.Cost_cdcm.dropped_packets;
  Alcotest.(check bool) "energy finite" true (Float.is_finite e.Mapping.Cost_cdcm.total)

(* Acceptance property: under every single-link failure the simulator
   terminates and accounts for every packet. *)
let test_every_single_link_fault_terminates () =
  let check_mesh ~cols ~rows app =
    let mesh = Mesh.create ~cols ~rows in
    let cdcg = Option.get (Nocmap_apps.Catalog.find app) in
    let n = Cdcg.packet_count cdcg in
    let placement = Mapping.Placement.identity ~cores:(Cdcg.core_count cdcg) in
    List.iter
      (fun faults ->
        let crg = Crg.create ~faults mesh in
        let s = Wormhole.run_summary ~params ~crg ~placement cdcg in
        Alcotest.(check bool)
          (Printf.sprintf "%s completes under %s" app (Fault.to_string faults))
          false s.Wormhole.truncated;
        Alcotest.(check int)
          (Printf.sprintf "%s accounts all packets under %s" app
             (Fault.to_string faults))
          n
          (s.Wormhole.delivered_packets + s.Wormhole.dropped_packets))
      (Fault.single_link_scenarios mesh)
  in
  check_mesh ~cols:3 ~rows:3 "romberg-wide";
  check_mesh ~cols:4 ~rows:4 "fft16"

(* --- Fault-weighted objective --- *)

let test_cdcm_expected () =
  let tech = Technology.t007 in
  let cdcg = abc_cdcg in
  let plain = Crg.create mesh3 in
  let placement = [| 0; 1; 2 |] in
  let single obj = obj.Mapping.Objective.cost_fn placement in
  let baseline = single (Mapping.Objective.cdcm ~tech ~params ~crg:plain ~cdcg ()) in
  let expected1 =
    single
      (Mapping.Objective.cdcm_expected ~tech ~params
         ~scenarios:[ (plain, 1.0) ]
         ~cdcg ())
  in
  Alcotest.(check (float 1e-18)) "degenerate distribution = cdcm" baseline expected1;
  let degraded = severed_crg () in
  let mixed =
    Mapping.Objective.cdcm_expected ~tech ~params
      ~scenarios:[ (plain, 3.0); (degraded, 1.0) ]
      ~cdcg ()
  in
  let cost = single mixed in
  let degraded_cost =
    single (Mapping.Objective.cdcm ~tech ~params ~crg:degraded ~cdcg ())
  in
  let lo = min baseline degraded_cost and hi = max baseline degraded_cost in
  Alcotest.(check bool) "expectation between extremes" true
    (lo -. 1e-18 <= cost && cost <= hi +. 1e-18);
  (match mixed.Mapping.Objective.bound_fn with
  | None -> Alcotest.fail "expected a bound function"
  | Some bound_fn -> begin
    (match bound_fn ~cutoff:1e9 placement with
    | Mapping.Objective.Exact c ->
      Alcotest.(check (float 1e-18)) "bound exact matches cost" cost c
    | Mapping.Objective.At_least _ -> Alcotest.fail "generous cutoff truncated");
    match bound_fn ~cutoff:(cost /. 4.0) placement with
    | Mapping.Objective.Exact c ->
      (* The dynamic-energy shortcut may still answer exactly; the value
         must be the true cost. *)
      Alcotest.(check (float 1e-18)) "tight cutoff still truthful" cost c
    | Mapping.Objective.At_least b ->
      Alcotest.(check bool) "lower bound is a lower bound" true (b <= cost +. 1e-18)
  end);
  Alcotest.(check bool) "empty scenarios rejected" true
    (match Mapping.Objective.cdcm_expected ~tech ~params ~scenarios:[] ~cdcg () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "non-positive weight rejected" true
    (match
       Mapping.Objective.cdcm_expected ~tech ~params
         ~scenarios:[ (plain, 0.0) ]
         ~cdcg ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let suite =
  ( "fault",
    [
      Alcotest.test_case "make validates" `Quick test_make_validates;
      Alcotest.test_case "router implies links" `Quick test_router_implies_links;
      Alcotest.test_case "scenario generators" `Quick test_scenario_generators;
      Alcotest.test_case "empty faults bit-identical" `Quick
        test_empty_faults_bit_identical;
      Alcotest.test_case "reroute detours" `Quick test_reroute_detours;
      Alcotest.test_case "unreachable pairs" `Quick test_unreachable_pairs;
      Alcotest.test_case "fault mesh mismatch" `Quick test_fault_mesh_mismatch;
      Alcotest.test_case "drop and cascade" `Quick test_drop_and_cascade;
      Alcotest.test_case "fault policy" `Quick test_fault_policy;
      Alcotest.test_case "scratch matches fresh" `Quick
        test_scratch_matches_fresh_under_faults;
      Alcotest.test_case "empty faults identical traces" `Quick
        test_empty_faults_identical_traces;
      Alcotest.test_case "unreachable energy skipped" `Quick
        test_unreachable_energy_skipped;
      Alcotest.test_case "all single-link faults terminate" `Quick
        test_every_single_link_fault_terminates;
      Alcotest.test_case "cdcm expected objective" `Quick test_cdcm_expected;
    ] )
