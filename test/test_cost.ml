module Mesh = Nocmap_noc.Mesh
module Crg = Nocmap_noc.Crg
module Cwg = Nocmap_model.Cwg
module Cdcg = Nocmap_model.Cdcg
module Technology = Nocmap_energy.Technology
module Noc_params = Nocmap_energy.Noc_params
module Mapping = Nocmap_mapping
module Fig1 = Nocmap_apps.Fig1
module Rng = Nocmap_util.Rng

let crg = Crg.create (Mesh.create ~cols:2 ~rows:2)
let params = Noc_params.paper_example

let tech =
  Technology.make ~name:"t" ~feature_nm:100 ~e_rbit:1.0e-12 ~e_lbit:1.0e-12
    ~p_s_router:0.025e-12 ()

let test_cost_table_sums_to_total () =
  let routers, links =
    Mapping.Cost_cwm.cost_table ~tech ~crg ~cwg:Fig1.cwg Fig1.mapping_c
  in
  let sum a = Array.fold_left ( +. ) 0.0 a in
  Alcotest.(check (float 1e-18)) "table total = eq 3" 390.0e-12
    (sum routers +. sum links)

let test_cost_table_values_fig2 () =
  (* Figure 2(a): core F's tile (2) passes A->F (15), B->F (40) and
     F->B (15): 70 pJ of router energy. *)
  let routers, _ =
    Mapping.Cost_cwm.cost_table ~tech ~crg ~cwg:Fig1.cwg Fig1.mapping_c
  in
  Alcotest.(check (float 1e-18)) "router of F" 70.0e-12 routers.(2)

let test_bit_hops () =
  (* mapping (c): A->B 15*2, A->F 15*3, B->F 40*2, E->A 35*2, F->B 15*2
     = 30+45+80+70+30 = 255 bit-routers. *)
  Alcotest.(check int) "bit hops" 255
    (Mapping.Cost_cwm.bit_hops ~crg ~cwg:Fig1.cwg Fig1.mapping_c)

let test_invalid_placement_rejected () =
  Alcotest.(check bool) "raises" true
    (match Mapping.Cost_cwm.dynamic_energy ~tech ~crg ~cwg:Fig1.cwg [| 0; 0; 1; 2 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_cdcm_dynamic_equals_cwm () =
  (* Equation (4) sums per packet what equation (3) sums per
     communication: identical totals on the projected CWG. *)
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 20 do
    let spec =
      Nocmap_tgff.Generator.default_spec ~name:"x" ~cores:4 ~packets:12
        ~total_bits:3_000
    in
    let cdcg = Nocmap_tgff.Generator.generate (Rng.split rng) spec in
    let cwg = Cwg.of_cdcg cdcg in
    let placement = Mapping.Placement.random (Rng.split rng) ~cores:4 ~tiles:4 in
    Alcotest.(check (float 1e-18)) "eq3 = eq4"
      (Mapping.Cost_cwm.dynamic_energy ~tech ~crg ~cwg placement)
      (Mapping.Cost_cdcm.dynamic_energy ~tech ~crg ~cdcg placement)
  done

let test_evaluation_consistency () =
  let e =
    Mapping.Cost_cdcm.evaluate ~tech ~params ~crg ~cdcg:Fig1.cdcg Fig1.mapping_c
  in
  Alcotest.(check (float 1e-18)) "total = dyn + static"
    (e.Mapping.Cost_cdcm.dynamic +. e.Mapping.Cost_cdcm.static_)
    e.Mapping.Cost_cdcm.total;
  Alcotest.(check (float 1e-9)) "texec ns consistent" 100.0 e.Mapping.Cost_cdcm.texec_ns;
  Alcotest.(check int) "texec cycles" 100 e.Mapping.Cost_cdcm.texec_cycles;
  Alcotest.(check int) "contention" 7 e.Mapping.Cost_cdcm.contention_cycles

let test_objectives () =
  let cwm = Mapping.Objective.cwm ~tech ~crg ~cwg:Fig1.cwg in
  let cdcm = Mapping.Objective.cdcm ~tech ~params ~crg ~cdcg:Fig1.cdcg () in
  let texec = Mapping.Objective.texec ~params ~crg ~cdcg:Fig1.cdcg in
  Alcotest.(check string) "cwm name" "cwm" cwm.Mapping.Objective.name;
  Alcotest.(check (float 1e-18)) "cwm cost" 390.0e-12
    (cwm.Mapping.Objective.cost_fn Fig1.mapping_c);
  Alcotest.(check (float 1e-18)) "cdcm cost" 400.0e-12
    (cdcm.Mapping.Objective.cost_fn Fig1.mapping_c);
  Alcotest.(check (float 1e-9)) "texec cost" 90.0
    (texec.Mapping.Objective.cost_fn Fig1.mapping_d)

let test_evaluate_bound () =
  let cdcg = Fig1.cdcg in
  let scratch = Nocmap_sim.Wormhole.Scratch.create ~params ~crg cdcg in
  let evaluate p =
    Mapping.Cost_cdcm.evaluate ~scratch ~tech ~params ~crg ~cdcg p
  in
  let bound ~cutoff p =
    Mapping.Cost_cdcm.evaluate_bound ~scratch ~tech ~params ~crg ~cdcg ~cutoff p
  in
  let exact = evaluate Fig1.mapping_c in
  (* A generous cutoff never truncates and reproduces the evaluation. *)
  (match bound ~cutoff:(exact.Mapping.Cost_cdcm.total *. 2.0) Fig1.mapping_c with
  | Mapping.Cost_cdcm.Exact e ->
    Alcotest.(check (float 1e-18)) "exact under generous cutoff"
      exact.Mapping.Cost_cdcm.total e.Mapping.Cost_cdcm.total
  | Mapping.Cost_cdcm.At_least _ -> Alcotest.fail "truncated under generous cutoff");
  (* A cutoff below the dynamic energy rejects without simulating; any
     truncated verdict is a sound strict lower bound. *)
  (match bound ~cutoff:(exact.Mapping.Cost_cdcm.dynamic /. 2.0) Fig1.mapping_c with
  | Mapping.Cost_cdcm.Exact _ -> Alcotest.fail "expected a rejection"
  | Mapping.Cost_cdcm.At_least b ->
    Alcotest.(check bool) "strictly above cutoff" true
      (b > exact.Mapping.Cost_cdcm.dynamic /. 2.0);
    Alcotest.(check bool) "at most the true total" true
      (b <= exact.Mapping.Cost_cdcm.total +. 1e-18));
  (* Mid-range cutoffs: whatever the verdict, it must be consistent. *)
  List.iter
    (fun frac ->
      let cutoff = exact.Mapping.Cost_cdcm.total *. frac in
      match bound ~cutoff Fig1.mapping_c with
      | Mapping.Cost_cdcm.Exact e ->
        Alcotest.(check (float 1e-18)) "exact verdicts are exact"
          exact.Mapping.Cost_cdcm.total e.Mapping.Cost_cdcm.total
      | Mapping.Cost_cdcm.At_least b ->
        Alcotest.(check bool) "bound in (cutoff, total]" true
          (b > cutoff && b <= exact.Mapping.Cost_cdcm.total +. 1e-18))
    [ 0.5; 0.9; 0.99; 1.01 ]

let suite =
  ( "cost",
    [
      Alcotest.test_case "evaluate_bound" `Quick test_evaluate_bound;
      Alcotest.test_case "cost table sums" `Quick test_cost_table_sums_to_total;
      Alcotest.test_case "cost table values (fig 2)" `Quick test_cost_table_values_fig2;
      Alcotest.test_case "bit hops" `Quick test_bit_hops;
      Alcotest.test_case "invalid placement" `Quick test_invalid_placement_rejected;
      Alcotest.test_case "eq 3 equals eq 4" `Quick test_cdcm_dynamic_equals_cwm;
      Alcotest.test_case "evaluation consistency" `Quick test_evaluation_consistency;
      Alcotest.test_case "objectives" `Quick test_objectives;
    ] )
