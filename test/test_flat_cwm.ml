(* The flat CWM representation: Cwg's connection arrays, Crg's per-pair
   router/TSV count tables and array-built paths, the tabulated
   Cost_cwm evaluator and the table-driven Symmetry.hop_exact, each
   checked against a pairwise definition written here from the public
   path API, on planar, torus, CxRxL and faulted CRGs. *)

module Rng = Nocmap_util.Rng
module Mesh = Nocmap_noc.Mesh
module Link = Nocmap_noc.Link
module Routing = Nocmap_noc.Routing
module Fault = Nocmap_noc.Fault
module Crg = Nocmap_noc.Crg
module Symmetry = Nocmap_noc.Symmetry
module Cwg = Nocmap_model.Cwg
module Equations = Nocmap_energy.Equations
module Technology = Nocmap_energy.Technology
module Placement = Nocmap_mapping.Placement
module Cost_cwm = Nocmap_mapping.Cost_cwm
module Objective = Nocmap_mapping.Objective

type kind = Planar | Torus | Stacked | Faulted

let kind_name = function
  | Planar -> "planar"
  | Torus -> "torus"
  | Stacked -> "CxRxL"
  | Faulted -> "faulted"

(* A random CRG of the given kind; faulted ones fail a few links and
   routers of a planar, stacked or torus mesh, so some pairs reroute and
   some become unreachable. *)
let random_crg rng kind =
  let planar () = Mesh.create ~cols:(Rng.int_in rng 1 5) ~rows:(Rng.int_in rng 1 5) in
  let dor () = if Rng.bool rng then Routing.Xy else Routing.Yx in
  match kind with
  | Planar -> Crg.create ~routing:(dor ()) (planar ())
  | Torus ->
    let routing = if Rng.bool rng then Routing.Torus_xy else Routing.Torus_yx in
    Crg.create ~routing (Mesh.create ~cols:(Rng.int_in rng 3 5) ~rows:(Rng.int_in rng 3 5))
  | Stacked ->
    Crg.create ~routing:(dor ())
      (Mesh.create3 ~cols:(Rng.int_in rng 1 4) ~rows:(Rng.int_in rng 1 4)
         ~layers:(Rng.int_in rng 2 3))
  | Faulted ->
    let routing, mesh =
      match Rng.int rng 3 with
      | 0 -> (dor (), Mesh.create ~cols:(Rng.int_in rng 2 5) ~rows:(Rng.int_in rng 2 5))
      | 1 ->
        ( dor (),
          Mesh.create3 ~cols:(Rng.int_in rng 2 3) ~rows:(Rng.int_in rng 2 3)
            ~layers:(Rng.int_in rng 2 3) )
      | _ -> (Routing.Torus_xy, Mesh.create ~cols:(Rng.int_in rng 3 4) ~rows:(Rng.int_in rng 3 4))
    in
    let wrap = Routing.uses_wrap_links routing in
    let links = Array.of_list (Link.all ~wrap mesh) in
    let tiles = Mesh.tile_count mesh in
    let faults =
      Fault.make ~wrap
        ~links:(List.init (Rng.int_in rng 1 4) (fun _ -> Rng.choose rng links))
        ~routers:(List.init (Rng.int rng 2) (fun _ -> Rng.int rng tiles))
        mesh
    in
    Crg.create ~routing ~faults mesh

let random_cwg rng ~cores =
  let edges =
    if cores < 2 then []
    else
      List.init (Rng.int_in rng 0 (3 * cores)) (fun _ ->
          let src = Rng.int rng cores in
          let dst = (src + Rng.int_in rng 1 (cores - 1)) mod cores in
          (src, dst, Rng.int_in rng 1 5_000))
  in
  Cwg.create_exn ~name:"flat" ~core_names:(Array.init cores string_of_int) ~edges

let random_instance rng kind =
  let crg = random_crg rng kind in
  let tiles = Crg.tile_count crg in
  let cores = Rng.int_in rng 1 tiles in
  let cwg = random_cwg rng ~cores in
  (crg, cwg, Placement.random rng ~cores ~tiles)

let vertical_links crg (p : Crg.path) =
  let mesh = Crg.mesh crg in
  Array.fold_left (fun acc lid -> if Link.is_vertical mesh lid then acc + 1 else acc) 0 p.Crg.links

(* Eq. 3 as a fold over the public path API: a pair with no path
   charges nothing, every other one [bits * EBit(K, v)]. *)
let reference_energy tech crg cwg placement =
  List.fold_left
    (fun acc (src, dst, bits) ->
      let path = Crg.path crg ~src:placement.(src) ~dst:placement.(dst) in
      let routers = Array.length path.Crg.routers in
      if routers = 0 then acc
      else
        acc
        +. Equations.communication_energy ~tsv:(vertical_links crg path) tech ~routers ~bits)
    0.0 (Cwg.communications cwg)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

let kinds = [ Planar; Torus; Stacked; Faulted ]

let prop_cost_matches_reference kind =
  QCheck2.Test.make
    ~name:(Printf.sprintf "flat Cost_cwm = Eq. 3 path fold, bit for bit (%s)" (kind_name kind))
    ~count:(Test_util.prop_count 100) seed_gen (fun seed ->
      let rng = Rng.create ~seed in
      let crg, cwg, placement = random_instance rng kind in
      let tech = Rng.choose rng (Array.of_list Technology.all) in
      let expected = reference_energy tech crg cwg placement in
      let objective = Objective.cwm ~tech ~crg ~cwg in
      same_bits expected (Cost_cwm.dynamic_energy ~tech ~crg ~cwg placement)
      && same_bits expected (objective.Objective.cost_fn placement)
      && same_bits expected
           (Cost_cwm.evaluate (Cost_cwm.create ~tech ~crg ~cwg) placement))

(* Every path the CRG built equals the dimension-ordered route when that
   route survives the faults; a reroute runs from [src] to [dst]; in
   both cases the links are {!Link.id} of each hop, and the count tables
   agree with the paths. *)
let prop_paths_match_routing kind =
  QCheck2.Test.make
    ~name:(Printf.sprintf "array-built Crg paths = Routing.router_path/Link.id (%s)" (kind_name kind))
    ~count:(Test_util.prop_count 50) seed_gen (fun seed ->
      let rng = Rng.create ~seed in
      let crg = random_crg rng kind in
      let mesh = Crg.mesh crg and routing = Crg.routing crg in
      let wrap = Routing.uses_wrap_links routing in
      let tiles = Crg.tile_count crg in
      let ok = ref true in
      let max_r = ref 0 and max_v = ref 0 in
      for src = 0 to tiles - 1 do
        for dst = 0 to tiles - 1 do
          let p = Crg.path crg ~src ~dst in
          let routers = Array.to_list p.Crg.routers in
          let hop_links =
            List.map (fun (a, b) -> Link.id ~wrap mesh ~src:a ~dst:b) (Routing.links_of_path routers)
          in
          let k = Array.length p.Crg.routers and v = vertical_links crg p in
          max_r := max !max_r k;
          max_v := max !max_v v;
          let i = (src * tiles) + dst in
          let direct = Routing.router_path mesh routing ~src ~dst in
          let intact =
            match Crg.faults crg with
            | None -> true
            | Some f ->
              List.for_all (fun r -> not (Fault.router_down f r)) direct
              && List.for_all
                   (fun (a, b) -> not (Fault.link_down f (Link.id ~wrap mesh ~src:a ~dst:b)))
                   (Routing.links_of_path direct)
          in
          if intact then (if routers <> direct then ok := false)
          else if k > 0 && (List.hd routers <> src || List.nth routers (k - 1) <> dst) then
            ok := false;
          if (k = 0) <> (Crg.classify crg ~src ~dst = Crg.Unreachable) then ok := false;
          if hop_links <> Array.to_list p.Crg.links then ok := false;
          if (Crg.router_counts crg).(i) <> k || (Crg.tsv_counts crg).(i) <> v then ok := false;
          if Crg.router_count_on_path crg ~src ~dst <> k then ok := false;
          if Crg.tsv_links_on_path crg ~src ~dst <> v then ok := false
        done
      done;
      !ok && Crg.max_router_count crg = !max_r && Crg.max_tsv_count crg = !max_v)

(* Hop-exactness from its definition: the image of every ordered pair
   keeps the router count and the vertical-link count of its path. *)
let reference_hop_exact crg p =
  let tiles = Crg.tile_count crg in
  let shape s d =
    let path = Crg.path crg ~src:s ~dst:d in
    (Array.length path.Crg.routers, vertical_links crg path)
  in
  let ok = ref true in
  for s = 0 to tiles - 1 do
    for d = 0 to tiles - 1 do
      if shape s d <> shape p.(s) p.(d) then ok := false
    done
  done;
  !ok

let prop_hop_exact_matches_reference kind =
  QCheck2.Test.make
    ~name:(Printf.sprintf "flat hop_exact = pairwise definition (%s)" (kind_name kind))
    ~count:(Test_util.prop_count 50) seed_gen (fun seed ->
      let rng = Rng.create ~seed in
      let crg = random_crg rng kind in
      let mesh = Crg.mesh crg in
      let tiles = Crg.tile_count crg in
      let shuffled =
        List.init 3 (fun _ ->
            let p = Array.init tiles Fun.id in
            Rng.shuffle_in_place rng p;
            p)
      in
      let candidates = Symmetry.candidates mesh in
      List.for_all
        (fun p -> Symmetry.hop_exact crg p = reference_hop_exact crg p)
        (candidates @ shuffled)
      && Array.to_list (Symmetry.perms (Symmetry.of_crg ~level:Symmetry.Hops crg))
         = List.filter (reference_hop_exact crg) candidates)

(* The connection arrays keep the (src, dst) order of the volume matrix
   and NCC/total bits keep their values. *)
let prop_cwg_arrays =
  QCheck2.Test.make ~name:"Cwg connection arrays keep order, NCC and total bits"
    ~count:(Test_util.prop_count 100) seed_gen (fun seed ->
      let rng = Rng.create ~seed in
      let cores = Rng.int_in rng 1 12 in
      let cwg = random_cwg rng ~cores in
      let expected = ref [] in
      for src = cores - 1 downto 0 do
        for dst = cores - 1 downto 0 do
          let w = Cwg.weight cwg ~src ~dst in
          if w > 0 then expected := (src, dst, w) :: !expected
        done
      done;
      let expected = !expected in
      Cwg.communications cwg = expected
      && Cwg.ncc cwg = List.length expected
      && Cwg.total_bits cwg = List.fold_left (fun acc (_, _, w) -> acc + w) 0 expected
      && Array.length cwg.Cwg.src = Cwg.ncc cwg
      && Array.length cwg.Cwg.dst = Cwg.ncc cwg
      && Array.length cwg.Cwg.bits = Cwg.ncc cwg)

(* A faulted CRG with an unreachable pair: router 4 of a 3x3 mesh is
   down, and Figure 1's core B sits on it.  The full evaluator drops the
   severed communications (0 energy) instead of raising. *)
let test_unreachable_pair_costs_nothing () =
  let mesh = Mesh.create ~cols:3 ~rows:3 in
  let crg = Crg.create ~faults:(Fault.make ~routers:[ 4 ] mesh) mesh in
  let tech = Technology.t007 in
  let cwg = Nocmap_apps.Fig1.cwg in
  let placement = [| 0; 4; 8; 2 |] in
  Alcotest.(check bool) "pair is unreachable" false (Crg.reachable crg ~src:0 ~dst:4);
  let full = Cost_cwm.dynamic_energy ~tech ~crg ~cwg placement in
  Alcotest.(check bool) "matches the path fold" true
    (same_bits full (reference_energy tech crg cwg placement))

let suite =
  ( "flat-cwm",
    Alcotest.test_case "unreachable pair costs nothing" `Quick
      test_unreachable_pair_costs_nothing
    :: List.map QCheck_alcotest.to_alcotest
         ((prop_cwg_arrays :: List.map prop_cost_matches_reference kinds)
         @ List.map prop_paths_match_routing kinds
         @ List.map prop_hop_exact_matches_reference kinds) )
