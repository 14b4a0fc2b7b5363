(* Evaluation-cache units (hit/miss/eviction accounting, the bound
   protocol) and the differential guarantees: cached search is
   bit-identical to uncached search, and symmetry-reduced exhaustive
   enumeration reports the same optimum from a fraction of the
   evaluations. *)

module Mesh = Nocmap_noc.Mesh
module Crg = Nocmap_noc.Crg
module Fault = Nocmap_noc.Fault
module Link = Nocmap_noc.Link
module Symmetry = Nocmap_noc.Symmetry
module Cdcg = Nocmap_model.Cdcg
module Cwg = Nocmap_model.Cwg
module Noc_params = Nocmap_energy.Noc_params
module Technology = Nocmap_energy.Technology
module Rng = Nocmap_util.Rng
module Mapping = Nocmap_mapping
module Eval_cache = Nocmap_mapping.Eval_cache
module Generator = Nocmap_tgff.Generator

let mesh22 = Mesh.create ~cols:2 ~rows:2
let mesh33 = Mesh.create ~cols:3 ~rows:3
let params = Noc_params.make ~flit_bits:8 ()

let make_cache ?capacity ?(mesh = mesh33) ?(level = Symmetry.Paths) ~cores () =
  let symmetry = Symmetry.of_crg ~level (Crg.create mesh) in
  Eval_cache.create ?capacity ~symmetry ~cores ()

let test_miss_then_hit () =
  let cache = make_cache ~cores:3 () in
  let p = [| 0; 4; 8 |] in
  Alcotest.(check (option (float 0.0))) "cold lookup misses" None
    (Eval_cache.find_exact cache p);
  Eval_cache.add_exact cache p 42.5;
  Alcotest.(check (option (float 0.0))) "warm lookup hits" (Some 42.5)
    (Eval_cache.find_exact cache p);
  let s = Eval_cache.stats cache in
  Alcotest.(check int) "one hit" 1 s.Eval_cache.hits;
  Alcotest.(check int) "one miss" 1 s.Eval_cache.misses;
  Alcotest.(check int) "one entry" 1 s.Eval_cache.entries;
  Alcotest.(check (float 1e-9)) "hit rate" 0.5 (Eval_cache.hit_rate cache)

let test_symmetric_placements_hit () =
  let symmetry = Symmetry.of_crg ~level:Symmetry.Paths (Crg.create mesh33) in
  let cache = Eval_cache.create ~symmetry ~cores:4 () in
  let rng = Rng.create ~seed:7 in
  let p = Mapping.Placement.random rng ~cores:4 ~tiles:9 in
  Eval_cache.add_exact cache p 3.25;
  Array.iter
    (fun g ->
      Alcotest.(check (option (float 0.0)))
        "every orbit mate hits the same entry" (Some 3.25)
        (Eval_cache.find_exact cache (Symmetry.apply g p)))
    (Symmetry.perms symmetry)

let test_bound_protocol () =
  let cache = make_cache ~cores:3 () in
  let p = [| 1; 3; 5 |] in
  (match Eval_cache.find_bound cache ~cutoff:10.0 p with
  | Eval_cache.Unknown -> ()
  | _ -> Alcotest.fail "cold bound lookup must be Unknown");
  Eval_cache.add_bound cache ~cutoff:10.0 p 12.0;
  (match Eval_cache.find_bound cache ~cutoff:8.0 p with
  | Eval_cache.Known_at_least b ->
    Alcotest.(check (float 0.0)) "tighter cutoff reuses the bound" 12.0 b
  | _ -> Alcotest.fail "cutoff below the recorded one must answer At_least");
  (match Eval_cache.find_bound cache ~cutoff:11.0 p with
  | Eval_cache.Unknown -> ()
  | _ -> Alcotest.fail "looser cutoff must fall through to re-evaluation");
  (* A lower bound recorded at a smaller cutoff must not overwrite one
     recorded at a larger cutoff. *)
  Eval_cache.add_bound cache ~cutoff:5.0 p 6.0;
  (match Eval_cache.find_bound cache ~cutoff:8.0 p with
  | Eval_cache.Known_at_least b ->
    Alcotest.(check (float 0.0)) "widest-cutoff bound is kept" 12.0 b
  | _ -> Alcotest.fail "bound recorded at cutoff 10 must survive");
  (* An exact cost supersedes bounds entirely. *)
  Eval_cache.add_exact cache p 9.5;
  (match Eval_cache.find_bound cache ~cutoff:10.0 p with
  | Eval_cache.Known_exact c ->
    Alcotest.(check (float 0.0)) "exact within cutoff" 9.5 c
  | _ -> Alcotest.fail "exact cost within cutoff must answer Known_exact");
  match Eval_cache.find_bound cache ~cutoff:9.0 p with
  | Eval_cache.Unknown -> ()
  | _ -> Alcotest.fail "exact cost above cutoff must answer Unknown"

let test_capacity_and_eviction () =
  (* Capacity 8 = one probe window: the 9th distinct entry must evict. *)
  let cache = make_cache ~capacity:8 ~level:Symmetry.Hops ~cores:1 () in
  for tile = 0 to 8 do
    (* cores=1 placements [|tile|]; canonicalization folds symmetric
       tiles together, so insert by canonical form to count entries. *)
    ignore (Eval_cache.find_exact cache [| tile |]);
    Eval_cache.add_exact cache [| tile |] (float_of_int tile)
  done;
  let s = Eval_cache.stats cache in
  Alcotest.(check int) "capacity is the requested power of two" 8
    s.Eval_cache.capacity;
  Alcotest.(check bool) "entries never exceed capacity" true
    (s.Eval_cache.entries <= 8)

let test_eviction_counts () =
  let symmetry = Symmetry.identity_only mesh33 in
  let cache = Eval_cache.create ~capacity:8 ~symmetry ~cores:2 () in
  (* 9*8 = 72 distinct placements through 8 slots must evict a lot. *)
  for a = 0 to 8 do
    for b = 0 to 8 do
      if a <> b then Eval_cache.add_exact cache [| a; b |] 1.0
    done
  done;
  let s = Eval_cache.stats cache in
  Alcotest.(check bool) "evictions happened" true (s.Eval_cache.evictions > 0);
  Alcotest.(check bool) "entries bounded" true (s.Eval_cache.entries <= 8)

let test_rejects_mismatched_placement () =
  let cache = make_cache ~cores:3 () in
  Alcotest.check_raises "placement size must match"
    (Invalid_argument "Eval_cache: placement size does not match the cache")
    (fun () -> ignore (Eval_cache.find_exact cache [| 0; 1 |]))

let test_geometric_growth () =
  (* A large requested capacity is a bound, not an up-front allocation:
     the table starts small and quadruples as distinct keys arrive, and
     no entry is evicted before the bound is reached. *)
  let symmetry = Symmetry.identity_only (Mesh.create ~cols:30 ~rows:1) in
  let cache = Eval_cache.create ~capacity:65536 ~symmetry ~cores:2 () in
  Alcotest.(check bool) "starts well below the requested capacity" true
    ((Eval_cache.stats cache).Eval_cache.capacity < 65536);
  for a = 0 to 29 do
    for b = 0 to 29 do
      if a <> b then
        Eval_cache.add_exact cache [| a; b |] (float_of_int ((100 * a) + b))
    done
  done;
  let s = Eval_cache.stats cache in
  Alcotest.(check int) "every distinct key is live" 870 s.Eval_cache.entries;
  Alcotest.(check bool) "grew past the initial table" true
    (s.Eval_cache.capacity > 256);
  Alcotest.(check int) "below the bound, growth never evicts" 0
    s.Eval_cache.evictions;
  (* Every fact survives the rehashes. *)
  for a = 0 to 29 do
    for b = 0 to 29 do
      if a <> b then
        Alcotest.(check (option (float 0.0))) "exact entries survive growth"
          (Some (float_of_int ((100 * a) + b)))
          (Eval_cache.find_exact cache [| a; b |])
    done
  done

let test_support_projection () =
  (* A support-restricted cache keys only the chosen cores: placements
     agreeing on the support (the frozen-region contract) share the
     entry. *)
  let symmetry = Symmetry.identity_only mesh33 in
  let cache =
    Eval_cache.create ~symmetry ~cores:4 ~support:[| 1; 3 |] ()
  in
  Eval_cache.add_exact cache [| 0; 4; 2; 8 |] 7.5;
  Alcotest.(check (option (float 0.0)))
    "same support tiles, same frozen context: hit" (Some 7.5)
    (Eval_cache.find_exact cache [| 0; 4; 2; 8 |]);
  Alcotest.(check (option (float 0.0))) "different support tile: miss" None
    (Eval_cache.find_exact cache [| 0; 5; 2; 8 |])

let test_support_validation () =
  let trivial = Symmetry.identity_only mesh33 in
  let must_raise name support symmetry =
    match Eval_cache.create ~symmetry ~cores:4 ~support () with
    | _ -> Alcotest.fail (name ^ " should be rejected")
    | exception Invalid_argument _ -> ()
  in
  must_raise "empty support" [||] trivial;
  must_raise "out-of-range core" [| 1; 9 |] trivial;
  must_raise "non-increasing support" [| 2; 2 |] trivial;
  must_raise "partial support under a non-trivial group" [| 0; 1 |]
    (Symmetry.of_crg ~level:Symmetry.Hops (Crg.create mesh33));
  (* The full support composes with any group. *)
  ignore
    (Eval_cache.create
       ~symmetry:(Symmetry.of_crg ~level:Symmetry.Hops (Crg.create mesh33))
       ~cores:4
       ~support:[| 0; 1; 2; 3 |]
       ())

let prop_supported_cache_identical =
  (* Frozen-context differential: with all cores outside the support
     pinned, a support-keyed cache answers exactly like a full-key
     cache. *)
  QCheck2.Test.make ~name:"support-keyed cache = full-key cache"
    ~count:(Test_util.prop_count 50)
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let trivial = Symmetry.identity_only mesh33 in
      let full = Eval_cache.create ~symmetry:trivial ~cores:5 () in
      let supported =
        Eval_cache.create ~symmetry:trivial ~cores:5 ~support:[| 1; 2; 4 |] ()
      in
      let frozen0 = Rng.int rng 9 and frozen3 = Rng.int rng 9 in
      let ok = ref true in
      for _ = 1 to 200 do
        let p =
          [| frozen0; Rng.int rng 9; Rng.int rng 9; frozen3; Rng.int rng 9 |]
        in
        (match (Eval_cache.find_exact full p, Eval_cache.find_exact supported p) with
        | Some a, Some b -> if a <> b then ok := false
        | None, None -> ()
        | Some _, None | None, Some _ -> ok := false);
        if Rng.int rng 2 = 0 then begin
          let c = float_of_int (Rng.int rng 1000) in
          Eval_cache.add_exact full p c;
          Eval_cache.add_exact supported p c
        end
      done;
      !ok)

(* --- differential: cached vs uncached search ------------------------- *)

let gen_scenario =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* cols = int_range 2 3 in
    let* rows = int_range 2 3 in
    let mesh = Mesh.create ~cols ~rows in
    let tiles = Mesh.tile_count mesh in
    let rng = Rng.create ~seed in
    let* cores = int_range 2 (min 6 tiles) in
    let* packets = int_range 1 30 in
    let spec =
      Generator.default_spec ~name:"cache" ~cores ~packets
        ~total_bits:(max packets (packets * 50))
    in
    let cdcg = Generator.generate rng spec in
    return (mesh, cdcg))

let results_identical (a : Mapping.Objective.search_result)
    (b : Mapping.Objective.search_result) =
  a.Mapping.Objective.placement = b.Mapping.Objective.placement
  && a.Mapping.Objective.cost = b.Mapping.Objective.cost
  && a.Mapping.Objective.evaluations = b.Mapping.Objective.evaluations

let cached_view ~level ~crg ~cores objective =
  let symmetry = Symmetry.of_crg ~level crg in
  let cache = Eval_cache.create ~symmetry ~cores () in
  Mapping.Objective.with_cache cache objective

let prop_cached_sa_cdcm_identical =
  QCheck2.Test.make
    ~name:"cached pruned SA on CDCM is bit-identical to uncached"
    ~count:(Test_util.prop_count 15) gen_scenario (fun (mesh, cdcg) ->
      let crg = Crg.create mesh in
      let tiles = Mesh.tile_count mesh in
      let cores = Cdcg.core_count cdcg in
      let config =
        { (Mapping.Annealing.quick_config ~tiles) with
          Mapping.Annealing.prune = Some 20.0
        }
      in
      let run objective =
        Mapping.Annealing.search ~rng:(Rng.create ~seed:31) ~config ~tiles
          ~objective ~cores ()
      in
      let make () =
        Mapping.Objective.cdcm ~tech:Technology.t007 ~params ~crg ~cdcg ()
      in
      let plain = run (make ()) in
      let cached =
        run (cached_view ~level:Symmetry.Paths ~crg ~cores (make ()))
      in
      results_identical plain cached)

(* CWM's closed-form cost is cheaper than a lookup, so [with_cache]
   hands it back unwrapped: the search is the plain one and the cache
   sees nothing. *)
let test_with_cache_leaves_cwm_unwrapped () =
  let rng = Rng.create ~seed:23 in
  let spec = Generator.default_spec ~name:"cwm" ~cores:7 ~packets:30 ~total_bits:3000 in
  let cdcg = Generator.generate rng spec in
  let crg = Crg.create mesh33 in
  let cwg = Cwg.of_cdcg cdcg in
  let run objective =
    Mapping.Annealing.search ~rng:(Rng.create ~seed:47)
      ~config:(Mapping.Annealing.quick_config ~tiles:9)
      ~tiles:9 ~objective ~cores:7 ()
  in
  let make () = Mapping.Objective.cwm ~tech:Technology.t035 ~crg ~cwg in
  let cache = Eval_cache.create ~symmetry:(Symmetry.of_crg ~level:Symmetry.Hops crg) ~cores:7 () in
  let plain = run (make ()) in
  let wrapped = run (Mapping.Objective.with_cache cache (make ())) in
  Alcotest.(check bool) "same placement, cost and evaluations" true
    (results_identical plain wrapped);
  let s = Eval_cache.stats cache in
  Alcotest.(check int) "no lookups" 0
    (s.Eval_cache.hits + s.Eval_cache.bound_hits + s.Eval_cache.misses);
  Alcotest.(check int) "no entries" 0 s.Eval_cache.entries

let prop_cached_local_search_identical =
  QCheck2.Test.make ~name:"cached local search is bit-identical to uncached"
    ~count:(Test_util.prop_count 15) gen_scenario (fun (mesh, cdcg) ->
      let crg = Crg.create mesh in
      let tiles = Mesh.tile_count mesh in
      let cores = Cdcg.core_count cdcg in
      let initial =
        Mapping.Placement.random (Rng.create ~seed:3) ~cores ~tiles
      in
      let run objective =
        Mapping.Local_search.search ~objective ~tiles ~initial ()
      in
      let make () = Mapping.Objective.texec ~params ~crg ~cdcg in
      let plain = run (make ()) in
      let cached =
        run (cached_view ~level:Symmetry.Paths ~crg ~cores (make ()))
      in
      results_identical plain cached)

let prop_cached_expected_identical =
  QCheck2.Test.make
    ~name:"cached fault-expectation SA is bit-identical to uncached"
    ~count:(Test_util.prop_count 8) gen_scenario (fun (mesh, cdcg) ->
      let scenarios =
        [
          (Crg.create mesh, 0.6);
          ( Crg.create
              ~faults:(Fault.make mesh ~links:[ Link.id mesh ~src:0 ~dst:1 ])
              mesh,
            0.4 );
        ]
      in
      let tiles = Mesh.tile_count mesh in
      let cores = Cdcg.core_count cdcg in
      let config =
        { (Mapping.Annealing.quick_config ~tiles) with
          Mapping.Annealing.prune = Some 20.0
        }
      in
      let run objective =
        Mapping.Annealing.search ~rng:(Rng.create ~seed:59) ~config ~tiles
          ~objective ~cores ()
      in
      let make () =
        Mapping.Objective.cdcm_expected ~tech:Technology.t007 ~params
          ~scenarios ~cdcg ()
      in
      let plain = run (make ()) in
      let cached =
        let symmetry =
          Symmetry.of_crgs ~level:Symmetry.Paths (List.map fst scenarios)
        in
        let cache = Eval_cache.create ~symmetry ~cores () in
        run (Mapping.Objective.with_cache cache (make ()))
      in
      results_identical plain cached)

(* --- symmetry-reduced exhaustive search ------------------------------ *)

let test_exhaustive_symmetry_full_occupancy () =
  (* 9 cores on 3x3 under the hop-exact group (order 8): full-occupancy
     placements have trivial stabilizers, so exactly 9!/8 canonical
     representatives are evaluated. *)
  let rng = Rng.create ~seed:101 in
  let spec = Generator.default_spec ~name:"ex9" ~cores:9 ~packets:12 ~total_bits:600 in
  let cdcg = Generator.generate rng spec in
  let crg = Crg.create mesh33 in
  let cwg = Cwg.of_cdcg cdcg in
  let objective = Mapping.Objective.cwm ~tech:Technology.t035 ~crg ~cwg in
  let symmetry = Symmetry.of_crg ~level:Symmetry.Hops crg in
  let full =
    Mapping.Exhaustive.search ~objective ~cores:9 ~tiles:9 ()
  in
  let reduced =
    Mapping.Exhaustive.search ~objective ~cores:9 ~tiles:9 ~symmetry ()
  in
  Alcotest.(check int) "full enumeration evaluates 9!" 362_880
    full.Mapping.Objective.evaluations;
  Alcotest.(check int) "reduced enumeration evaluates 9!/8" 45_360
    reduced.Mapping.Objective.evaluations;
  Alcotest.(check bool) "same optimal placement" true
    (full.Mapping.Objective.placement = reduced.Mapping.Objective.placement);
  Alcotest.(check (float 0.0)) "same optimal cost"
    full.Mapping.Objective.cost reduced.Mapping.Objective.cost

let test_exhaustive_symmetry_cdcm () =
  (* 4 cores on 2x2 under the path-exact group (order 4): the acceptance
     target of <= 1/4 of the mappings, with a simulation-backed cost. *)
  let rng = Rng.create ~seed:5 in
  let spec = Generator.default_spec ~name:"ex4" ~cores:4 ~packets:10 ~total_bits:500 in
  let cdcg = Generator.generate rng spec in
  let crg = Crg.create mesh22 in
  let objective = Mapping.Objective.cdcm ~tech:Technology.t007 ~params ~crg ~cdcg () in
  let symmetry = Symmetry.of_crg ~level:Symmetry.Paths crg in
  let full = Mapping.Exhaustive.search ~objective ~cores:4 ~tiles:4 () in
  let reduced =
    Mapping.Exhaustive.search ~objective ~cores:4 ~tiles:4 ~symmetry ()
  in
  Alcotest.(check int) "full enumeration evaluates 4!" 24
    full.Mapping.Objective.evaluations;
  Alcotest.(check int) "reduced enumeration evaluates 4!/4" 6
    reduced.Mapping.Objective.evaluations;
  Alcotest.(check bool) "same optimal placement" true
    (full.Mapping.Objective.placement = reduced.Mapping.Objective.placement);
  Alcotest.(check (float 0.0)) "same optimal cost"
    full.Mapping.Objective.cost reduced.Mapping.Objective.cost

let test_exhaustive_symmetry_partial () =
  (* 5 cores on 3x3, CDCM group {id, flips, rot180}: no placement of 5
     cores can be fixed by a non-identity reflection (each fixes at most
     3 tiles), so the reduction is exact too. *)
  let rng = Rng.create ~seed:77 in
  let spec = Generator.default_spec ~name:"ex5" ~cores:5 ~packets:10 ~total_bits:500 in
  let cdcg = Generator.generate rng spec in
  let crg = Crg.create mesh33 in
  let objective = Mapping.Objective.cdcm ~tech:Technology.t007 ~params ~crg ~cdcg () in
  let symmetry = Symmetry.of_crg ~level:Symmetry.Paths crg in
  let full = Mapping.Exhaustive.search ~objective ~cores:5 ~tiles:9 () in
  let reduced =
    Mapping.Exhaustive.search ~objective ~cores:5 ~tiles:9 ~symmetry ()
  in
  Alcotest.(check int) "full enumeration evaluates 9!/4!" 15_120
    full.Mapping.Objective.evaluations;
  Alcotest.(check int) "reduced enumeration evaluates (9!/4!)/4" 3_780
    reduced.Mapping.Objective.evaluations;
  Alcotest.(check bool) "same optimal placement" true
    (full.Mapping.Objective.placement = reduced.Mapping.Objective.placement);
  Alcotest.(check (float 0.0)) "same optimal cost"
    full.Mapping.Objective.cost reduced.Mapping.Objective.cost

let test_exhaustive_rejects_wrong_mesh () =
  let rng = Rng.create ~seed:1 in
  let spec = Generator.default_spec ~name:"bad" ~cores:2 ~packets:2 ~total_bits:100 in
  let cdcg = Generator.generate rng spec in
  let crg = Crg.create mesh22 in
  let objective = Mapping.Objective.cdcm ~tech:Technology.t007 ~params ~crg ~cdcg () in
  let symmetry = Symmetry.of_crg ~level:Symmetry.Paths (Crg.create mesh33) in
  Alcotest.check_raises "mesh mismatch"
    (Invalid_argument "Exhaustive.search: symmetry group is over a different mesh")
    (fun () ->
      ignore
        (Mapping.Exhaustive.search ~objective ~cores:2 ~tiles:4 ~symmetry ()))

let test_sa_hit_rate () =
  (* A realistic annealing run on a 3x3 TGFF instance must see a useful
     hit rate — the acceptance criterion asks for > 10%. *)
  let rng = Rng.create ~seed:13 in
  let spec = Generator.default_spec ~name:"hits" ~cores:9 ~packets:40 ~total_bits:2400 in
  let cdcg = Generator.generate rng spec in
  let crg = Crg.create mesh33 in
  let symmetry = Symmetry.of_crg ~level:Symmetry.Paths crg in
  let cache = Eval_cache.create ~symmetry ~cores:9 () in
  let objective =
    Mapping.Objective.with_cache cache
      (Mapping.Objective.cdcm ~tech:Technology.t007 ~params ~crg ~cdcg ())
  in
  (* A short quick-budget descent barely revisits anything; the >10%
     claim is about converged runs, which hover around the incumbent
     re-sampling its neighborhood.  Default budget, longer patience. *)
  let config =
    { (Mapping.Annealing.default_config ~tiles:9) with
      Mapping.Annealing.prune = Some 20.0;
      patience = 40
    }
  in
  ignore
    (Mapping.Annealing.search ~rng:(Rng.create ~seed:17) ~config ~tiles:9
       ~objective ~cores:9 ());
  let rate = Eval_cache.hit_rate cache in
  if not (rate > 0.10) then
    Alcotest.failf "SA hit rate %.1f%% below the 10%% threshold" (100.0 *. rate)

let test_metrics_exported () =
  let open Nocmap_obs in
  Metrics.with_enabled true (fun () ->
      let cache = make_cache ~cores:2 () in
      ignore (Eval_cache.find_exact cache [| 0; 1 |]);
      Eval_cache.add_exact cache [| 0; 1 |] 1.0;
      ignore (Eval_cache.find_exact cache [| 0; 1 |]));
  let names = List.map (fun s -> s.Metrics.name) (Metrics.snapshot ()) in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered") true (List.mem n names))
    [ "cache.hits"; "cache.bound_hits"; "cache.misses"; "cache.evictions" ]

let suite =
  ( "eval_cache",
    [
      Alcotest.test_case "miss then hit" `Quick test_miss_then_hit;
      Alcotest.test_case "orbit mates share an entry" `Quick
        test_symmetric_placements_hit;
      Alcotest.test_case "bound protocol" `Quick test_bound_protocol;
      Alcotest.test_case "bounded capacity" `Quick test_capacity_and_eviction;
      Alcotest.test_case "eviction accounting" `Quick test_eviction_counts;
      Alcotest.test_case "placement size check" `Quick
        test_rejects_mismatched_placement;
      Alcotest.test_case "geometric growth" `Quick test_geometric_growth;
      Alcotest.test_case "support projection" `Quick test_support_projection;
      Alcotest.test_case "support validation" `Quick test_support_validation;
      Alcotest.test_case "exhaustive symmetry: 9 cores on 3x3" `Slow
        test_exhaustive_symmetry_full_occupancy;
      Alcotest.test_case "exhaustive symmetry: CDCM on 2x2" `Quick
        test_exhaustive_symmetry_cdcm;
      Alcotest.test_case "exhaustive symmetry: 5 cores on 3x3" `Quick
        test_exhaustive_symmetry_partial;
      Alcotest.test_case "exhaustive symmetry: mesh mismatch" `Quick
        test_exhaustive_rejects_wrong_mesh;
      Alcotest.test_case "SA hit rate above 10%" `Quick test_sa_hit_rate;
      Alcotest.test_case "cache metrics registered" `Quick test_metrics_exported;
      Alcotest.test_case "with_cache leaves CWM unwrapped" `Quick
        test_with_cache_leaves_cwm_unwrapped;
      QCheck_alcotest.to_alcotest prop_cached_sa_cdcm_identical;
      QCheck_alcotest.to_alcotest prop_cached_local_search_identical;
      QCheck_alcotest.to_alcotest prop_cached_expected_identical;
      QCheck_alcotest.to_alcotest prop_supported_cache_identical;
    ] )
