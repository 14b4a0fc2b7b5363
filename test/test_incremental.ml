module Mesh = Nocmap_noc.Mesh
module Crg = Nocmap_noc.Crg
module Cwg = Nocmap_model.Cwg
module Technology = Nocmap_energy.Technology
module Mapping = Nocmap_mapping
module Rng = Nocmap_util.Rng
module Generator = Nocmap_tgff.Generator
module Fig1 = Nocmap_apps.Fig1

let tech = Technology.t035

let test_initial_cost_matches () =
  let crg = Crg.create (Mesh.create ~cols:2 ~rows:2) in
  let inc =
    Mapping.Cost_cwm_incremental.create ~tech ~crg ~cwg:Fig1.cwg
      ~placement:Fig1.mapping_c
  in
  Alcotest.(check (float 1e-20)) "same as full evaluation"
    (Mapping.Cost_cwm.dynamic_energy ~tech ~crg ~cwg:Fig1.cwg Fig1.mapping_c)
    (Mapping.Cost_cwm_incremental.cost inc)

let test_delta_matches_full_recompute () =
  let crg = Crg.create (Mesh.create ~cols:3 ~rows:3) in
  let rng = Rng.create ~seed:9 in
  let spec = Generator.default_spec ~name:"inc" ~cores:7 ~packets:30 ~total_bits:9_000 in
  let cdcg = Generator.generate (Rng.split rng) spec in
  let cwg = Cwg.of_cdcg cdcg in
  let placement = Mapping.Placement.random (Rng.split rng) ~cores:7 ~tiles:9 in
  let inc = Mapping.Cost_cwm_incremental.create ~tech ~crg ~cwg ~placement in
  for _ = 1 to 200 do
    let core = Rng.int rng 7 in
    let tile = Rng.int rng 9 in
    let before = Mapping.Cost_cwm_incremental.cost inc in
    let delta = Mapping.Cost_cwm_incremental.move_delta inc ~core ~tile in
    Mapping.Cost_cwm_incremental.apply_move inc ~core ~tile;
    let current = Mapping.Cost_cwm_incremental.placement inc in
    let full = Mapping.Cost_cwm.dynamic_energy ~tech ~crg ~cwg current in
    Alcotest.(check bool) "placement stays valid" true
      (Mapping.Placement.is_valid ~tiles:9 current);
    Alcotest.(check (float 1e-18)) "incremental total = full recompute" full
      (Mapping.Cost_cwm_incremental.cost inc);
    Alcotest.(check (float 1e-18)) "delta consistent" (before +. delta)
      (Mapping.Cost_cwm_incremental.cost inc)
  done

let test_noop_move () =
  let crg = Crg.create (Mesh.create ~cols:2 ~rows:2) in
  let inc =
    Mapping.Cost_cwm_incremental.create ~tech ~crg ~cwg:Fig1.cwg
      ~placement:Fig1.mapping_c
  in
  Alcotest.(check (float 1e-20)) "zero delta to own tile" 0.0
    (Mapping.Cost_cwm_incremental.move_delta inc ~core:0
       ~tile:Fig1.mapping_c.(0))

let test_move_to_free_tile () =
  (* 5 cores on 6 tiles: moving to the free tile must stay consistent. *)
  let crg = Crg.create (Mesh.create ~cols:3 ~rows:2) in
  let rng = Rng.create ~seed:4 in
  let spec = Generator.default_spec ~name:"free" ~cores:5 ~packets:20 ~total_bits:4_000 in
  let cdcg = Generator.generate (Rng.split rng) spec in
  let cwg = Cwg.of_cdcg cdcg in
  let placement = [| 0; 1; 2; 3; 4 |] in
  let inc = Mapping.Cost_cwm_incremental.create ~tech ~crg ~cwg ~placement in
  Mapping.Cost_cwm_incremental.apply_move inc ~core:2 ~tile:5;
  let current = Mapping.Cost_cwm_incremental.placement inc in
  Alcotest.(check int) "core moved" 5 current.(2);
  Alcotest.(check (float 1e-18)) "total consistent"
    (Mapping.Cost_cwm.dynamic_energy ~tech ~crg ~cwg current)
    (Mapping.Cost_cwm_incremental.cost inc);
  (* And back into the vacated tile chain: swap with an occupant. *)
  Mapping.Cost_cwm_incremental.apply_move inc ~core:0 ~tile:5;
  let current = Mapping.Cost_cwm_incremental.placement inc in
  Alcotest.(check int) "swap happened" 5 current.(0);
  Alcotest.(check int) "occupant displaced" 0 current.(2);
  Alcotest.(check (float 1e-18)) "total still consistent"
    (Mapping.Cost_cwm.dynamic_energy ~tech ~crg ~cwg current)
    (Mapping.Cost_cwm_incremental.cost inc)

let test_invalid_inputs () =
  let crg = Crg.create (Mesh.create ~cols:2 ~rows:2) in
  Alcotest.(check bool) "invalid placement rejected" true
    (match
       Mapping.Cost_cwm_incremental.create ~tech ~crg ~cwg:Fig1.cwg
         ~placement:[| 0; 0; 1; 2 |]
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let inc =
    Mapping.Cost_cwm_incremental.create ~tech ~crg ~cwg:Fig1.cwg
      ~placement:Fig1.mapping_c
  in
  Alcotest.(check bool) "core range" true
    (match Mapping.Cost_cwm_incremental.move_delta inc ~core:9 ~tile:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_cwm_swap_delta () =
  let crg = Crg.create (Mesh.create ~cols:3 ~rows:3) in
  let rng = Rng.create ~seed:17 in
  let spec =
    Generator.default_spec ~name:"swap" ~cores:7 ~packets:25 ~total_bits:6_000
  in
  let cdcg = Generator.generate (Rng.split rng) spec in
  let cwg = Cwg.of_cdcg cdcg in
  let placement = Mapping.Placement.random (Rng.split rng) ~cores:7 ~tiles:9 in
  let inc = Mapping.Cost_cwm_incremental.create ~tech ~crg ~cwg ~placement in
  Alcotest.(check (float 1e-20)) "self swap is free" 0.0
    (Mapping.Cost_cwm_incremental.swap_delta inc ~core_a:3 ~core_b:3);
  for _ = 1 to 50 do
    let a = Rng.int rng 7 and b = Rng.int rng 7 in
    let before = Mapping.Cost_cwm_incremental.cost inc in
    let delta = Mapping.Cost_cwm_incremental.swap_delta inc ~core_a:a ~core_b:b in
    let swapped = Mapping.Cost_cwm_incremental.placement inc in
    let ta = swapped.(a) in
    swapped.(a) <- swapped.(b);
    swapped.(b) <- ta;
    let full = Mapping.Cost_cwm.dynamic_energy ~tech ~crg ~cwg swapped in
    Alcotest.(check (float 1e-18)) "swap delta matches full recompute" full
      (before +. delta)
  done

let suite =
  ( "cwm-incremental",
    [
      Alcotest.test_case "initial cost" `Quick test_initial_cost_matches;
      Alcotest.test_case "deltas match full recompute" `Quick
        test_delta_matches_full_recompute;
      Alcotest.test_case "no-op move" `Quick test_noop_move;
      Alcotest.test_case "move to free tile" `Quick test_move_to_free_tile;
      Alcotest.test_case "invalid inputs" `Quick test_invalid_inputs;
      Alcotest.test_case "swap delta" `Quick test_cwm_swap_delta;
    ] )
