(* Divide-and-conquer mapping: the recursive bipartition is a true
   partition on every mesh/torus shape, every region stays in bounds,
   the search never loses to its own constructive seed, pooled runs are
   bit-identical to sequential ones, and a run killed at an arbitrary
   point resumes bit-identically. *)

module Mesh = Nocmap_noc.Mesh
module Crg = Nocmap_noc.Crg
module Routing = Nocmap_noc.Routing
module Cwg = Nocmap_model.Cwg
module Technology = Nocmap_energy.Technology
module Mapping = Nocmap_mapping
module Rng = Nocmap_util.Rng
module Domain_pool = Nocmap_util.Domain_pool
module Store = Nocmap_persist.Store
module Fsutil = Nocmap_persist.Fsutil
module Scale = Nocmap_tgff.Scale

let prop_count = Test_util.prop_count

let temp_dir () =
  let path = Filename.temp_file "nocmap" ".ckpt" in
  Sys.remove path;
  Fsutil.mkdir_p path;
  path

(* A sticky eval-budget stop: false for the first [n] polls, true ever
   after — the deterministic stand-in for a SIGKILL mid-search. *)
let stop_after n =
  let calls = Atomic.make 0 in
  fun () -> Atomic.fetch_and_add calls 1 >= n

let same_float a b = Int64.bits_of_float a = Int64.bits_of_float b

let check_result msg (expected : Mapping.Objective.search_result) actual =
  Alcotest.(check (array int))
    (msg ^ ": placement") expected.Mapping.Objective.placement
    actual.Mapping.Objective.placement;
  Alcotest.(check bool)
    (msg ^ ": cost bit-identical") true
    (same_float expected.Mapping.Objective.cost actual.Mapping.Objective.cost);
  Alcotest.(check int)
    (msg ^ ": evaluations") expected.Mapping.Objective.evaluations
    actual.Mapping.Objective.evaluations

let check_report msg (expected : Mapping.Decompose.report) actual =
  check_result msg expected.Mapping.Decompose.result
    actual.Mapping.Decompose.result;
  Alcotest.(check int) (msg ^ ": cut") expected.Mapping.Decompose.cut
    actual.Mapping.Decompose.cut;
  Alcotest.(check int) (msg ^ ": total") expected.Mapping.Decompose.total
    actual.Mapping.Decompose.total;
  Alcotest.(check bool)
    (msg ^ ": seed cost bit-identical") true
    (same_float expected.Mapping.Decompose.seed_cost
       actual.Mapping.Decompose.seed_cost);
  Alcotest.(check int)
    (msg ^ ": polish evaluations") expected.Mapping.Decompose.polish_evaluations
    actual.Mapping.Decompose.polish_evaluations;
  List.iter2
    (fun (e : Mapping.Decompose.region_report)
         (a : Mapping.Decompose.region_report) ->
      Alcotest.(check (list int))
        (msg ^ ": region cores") e.Mapping.Decompose.region_cores
        a.Mapping.Decompose.region_cores;
      Alcotest.(check bool) (msg ^ ": region rect") true
        (e.Mapping.Decompose.region_rect = a.Mapping.Decompose.region_rect);
      Alcotest.(check bool)
        (msg ^ ": region cost bit-identical") true
        (same_float e.Mapping.Decompose.region_cost
           a.Mapping.Decompose.region_cost);
      Alcotest.(check int)
        (msg ^ ": region evaluations") e.Mapping.Decompose.region_evaluations
        a.Mapping.Decompose.region_evaluations)
    expected.Mapping.Decompose.regions actual.Mapping.Decompose.regions

let tech =
  Technology.make ~name:"t" ~feature_nm:100 ~e_rbit:1.0e-12 ~e_lbit:1.0e-12
    ~p_s_router:0.025e-12 ()

(* --- partition properties on arbitrary mesh/torus shapes --- *)

(* cols x rows in 1..6, xy or torus-xy routing, a connected random CWG
   of up to [tiles] cores, and a max_region in 1..6. *)
let instance_gen =
  QCheck2.Gen.(
    int_range 1 6 >>= fun cols ->
    int_range 1 6 >>= fun rows ->
    int_range 2 (max 2 (cols * rows)) >>= fun cores ->
    bool >>= fun torus ->
    int_range 1 6 >>= fun max_region ->
    int_range 0 4 >>= fun kl_passes ->
    int_range 0 10_000 >>= fun seed ->
    return (cols, rows, cores, torus, max_region, kl_passes, seed))

let instance_print (cols, rows, cores, torus, max_region, kl_passes, seed) =
  Printf.sprintf "%dx%d, %d cores, torus:%b, max_region:%d, passes:%d, seed:%d"
    cols rows cores torus max_region kl_passes seed

let cwg_for ~cores ~seed =
  Scale.random_cwg
    (Rng.create ~seed:(seed + 1))
    ~name:"prop" ~cores ~degree:3 ~max_volume:1_000

let prop_partition_is_true_partition =
  QCheck2.Test.make
    ~name:"partition covers every core exactly once, every region in bounds"
    ~count:(prop_count 200) ~print:instance_print instance_gen
    (fun (cols, rows, cores, torus, max_region, kl_passes, seed) ->
      QCheck2.assume (cores <= cols * rows);
      let mesh = Mesh.create ~cols ~rows in
      let torus = torus && cols >= 3 && rows >= 3 in
      let _routing =
        Routing.algorithm_of_string (if torus then "torus-xy" else "xy")
      in
      let cwg = cwg_for ~cores ~seed in
      let regions =
        Mapping.Decompose.partition ~cwg ~mesh ~max_region ~kl_passes ()
      in
      let tiles = cols * rows in
      let core_seen = Array.make cores 0 in
      let tile_seen = Array.make tiles 0 in
      List.iter
        (fun (r : Mapping.Decompose.region) ->
          let rect = r.Mapping.Decompose.rect in
          (* Rectangles stay inside the mesh... *)
          if
            rect.Mapping.Decompose.x < 0
            || rect.Mapping.Decompose.y < 0
            || rect.Mapping.Decompose.x + rect.Mapping.Decompose.w > cols
            || rect.Mapping.Decompose.y + rect.Mapping.Decompose.h > rows
          then QCheck2.Test.fail_report "region rectangle out of bounds";
          (* ...the cluster fits its rectangle... *)
          if
            Array.length r.Mapping.Decompose.cores
            > rect.Mapping.Decompose.w * rect.Mapping.Decompose.h
          then QCheck2.Test.fail_report "cluster larger than its rectangle";
          (* ...and the tile list is exactly the rectangle's tiles. *)
          if
            Array.length r.Mapping.Decompose.tiles
            <> rect.Mapping.Decompose.w * rect.Mapping.Decompose.h
          then QCheck2.Test.fail_report "tile list does not cover the rectangle";
          Array.iter
            (fun c -> core_seen.(c) <- core_seen.(c) + 1)
            r.Mapping.Decompose.cores;
          Array.iter
            (fun t ->
              if t < 0 || t >= tiles then
                QCheck2.Test.fail_report "tile id out of range";
              tile_seen.(t) <- tile_seen.(t) + 1)
            r.Mapping.Decompose.tiles)
        regions;
      Array.for_all (fun n -> n = 1) core_seen
      && Array.for_all (fun n -> n = 1) tile_seen)

(* --- the search never loses to its own seed --- *)

(* A 4x4 mesh with 12 cores: big enough to split into several regions
   under max_region = 4, small enough to stay fast under CWM. *)
let mesh = Mesh.create ~cols:4 ~rows:4
let crg = Crg.create mesh
let cwg seed = cwg_for ~cores:12 ~seed

let config ?(refiner = Mapping.Decompose.Sa) () =
  {
    (Mapping.Decompose.quick_config ~tiles:16) with
    Mapping.Decompose.max_region = 4;
    refiner;
  }

let objective_for seed () = Mapping.Objective.cwm ~tech ~crg ~cwg:(cwg seed)

let run ?refiner ?pool ?stop seed =
  Mapping.Decompose.search ~rng:(Rng.create ~seed) ~config:(config ?refiner ())
    ~crg ~cwg:(cwg seed) ~objective_for:(objective_for seed) ?pool ?stop ()

let prop_beats_seed =
  QCheck2.Test.make
    ~name:"decompose cost <= its constructive seed cost (every refiner)"
    ~count:(prop_count 6)
    ~print:(fun (seed, r) ->
      Printf.sprintf "seed %d, %s" seed (Mapping.Decompose.refiner_to_string r))
    QCheck2.Gen.(
      pair (int_range 0 1000)
        (oneofl
           [ Mapping.Decompose.Sa; Mapping.Decompose.Tabu; Mapping.Decompose.Local ]))
    (fun (seed, refiner) ->
      let report = run ~refiner seed in
      let result = report.Mapping.Decompose.result in
      Mapping.Placement.is_valid ~tiles:16 result.Mapping.Objective.placement
      && result.Mapping.Objective.cost <= report.Mapping.Decompose.seed_cost
      && report.Mapping.Decompose.cut <= report.Mapping.Decompose.total
      && List.length report.Mapping.Decompose.regions >= 2)

(* --- pooled run is bit-identical to the sequential run --- *)

let prop_jobs_invariant =
  QCheck2.Test.make
    ~name:"decompose is bit-identical sequentially and on a 4-domain pool"
    ~count:(prop_count 5) ~print:string_of_int
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let sequential = run seed in
      Domain_pool.with_pool ~jobs:4 (fun pool ->
          check_report "jobs=4 vs jobs=1" sequential (run ~pool seed));
      true)

(* --- kill + resume --- *)

let persisted ?refiner ?stop ~store seed =
  Mapping.Search_persist.decompose
    ~journal:{ Mapping.Search_persist.store; key = "decompose"; every = 200 }
    ~rng:(Rng.create ~seed) ~config:(config ?refiner ()) ~crg ~cwg:(cwg seed)
    ~objective_name:"cwm" ~objective_for:(objective_for seed) ?stop ()

(* Kill points are drawn per mille of the uninterrupted run's stop
   polls, so every draw lands inside the run whatever its length: the
   local refiner finishes in a few dozen polls, annealing in thousands. *)
let prop_kill_resume_bit_identical =
  QCheck2.Test.make
    ~name:"decompose killed at any point resumes bit-identically"
    ~count:(prop_count 8)
    ~print:(fun (seed, refiner, per_mille) ->
      Printf.sprintf "seed %d, %s, kill at %d per mille" seed
        (Mapping.Decompose.refiner_to_string refiner)
        per_mille)
    QCheck2.Gen.(
      triple (int_range 0 1000)
        (oneofl
           [ Mapping.Decompose.Sa; Mapping.Decompose.Tabu; Mapping.Decompose.Local ])
        (int_range 0 999))
    (fun (seed, refiner, per_mille) ->
      let polls = ref 0 in
      let reference =
        run ~refiner
          ~stop:(fun () ->
            incr polls;
            false)
          seed
      in
      let kill_at = !polls * per_mille / 1000 in
      let store = Store.open_ ~dir:(temp_dir ()) in
      ignore (persisted ~refiner ~store ~stop:(stop_after kill_at) seed);
      let resumed = persisted ~refiner ~store seed in
      let replayed = persisted ~refiner ~store seed in
      check_report "resumed vs uninterrupted" reference resumed;
      check_report "replayed vs uninterrupted" reference replayed;
      true)

(* --- fingerprints pin the configuration --- *)

let test_persist_rejects_config_mismatch () =
  let store = Store.open_ ~dir:(temp_dir ()) in
  ignore (persisted ~store ~stop:(stop_after 500) 7);
  Alcotest.(check bool)
    "changed refiner is refused" true
    (match
       Mapping.Search_persist.decompose
         ~journal:{ Mapping.Search_persist.store; key = "decompose"; every = 200 }
         ~rng:(Rng.create ~seed:7)
         ~config:(config ~refiner:Mapping.Decompose.Local ())
         ~crg ~cwg:(cwg 7) ~objective_name:"cwm"
         ~objective_for:(objective_for 7) ()
     with
    | exception Failure _ -> true
    | _ -> false)

(* --- driver plumbing --- *)

let test_refiner_strings () =
  List.iter
    (fun r ->
      Alcotest.(check bool) "round-trips" true
        (Mapping.Decompose.refiner_of_string
           (Mapping.Decompose.refiner_to_string r)
        = Some r))
    [ Mapping.Decompose.Sa; Mapping.Decompose.Tabu; Mapping.Decompose.Local ];
  Alcotest.(check bool) "unknown name rejected" true
    (Mapping.Decompose.refiner_of_string "warp" = None)

let test_rejects_oversized_instance () =
  let small = Crg.create (Mesh.create ~cols:2 ~rows:2) in
  Alcotest.(check bool) "5 cores on 4 tiles raises" true
    (match
       Mapping.Decompose.search ~rng:(Rng.create ~seed:1)
         ~config:(Mapping.Decompose.quick_config ~tiles:4)
         ~crg:small
         ~cwg:(cwg_for ~cores:5 ~seed:1)
         ~objective_for:(fun () ->
           Mapping.Objective.cwm ~tech ~crg:small ~cwg:(cwg_for ~cores:5 ~seed:1))
         ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_single_region_degenerate () =
  (* max_region >= cores: one region, the refiner works the whole mesh. *)
  let report =
    Mapping.Decompose.search ~rng:(Rng.create ~seed:3)
      ~config:{ (config ()) with Mapping.Decompose.max_region = 16 }
      ~crg ~cwg:(cwg 3) ~objective_for:(objective_for 3) ()
  in
  Alcotest.(check int) "one region" 1
    (List.length report.Mapping.Decompose.regions);
  Alcotest.(check int) "no cut traffic" 0 report.Mapping.Decompose.cut

let suite =
  ( "decompose",
    [
      QCheck_alcotest.to_alcotest prop_partition_is_true_partition;
      QCheck_alcotest.to_alcotest prop_beats_seed;
      QCheck_alcotest.to_alcotest prop_jobs_invariant;
      QCheck_alcotest.to_alcotest prop_kill_resume_bit_identical;
      Alcotest.test_case "persist rejects config mismatch" `Quick
        test_persist_rejects_config_mismatch;
      Alcotest.test_case "refiner strings" `Quick test_refiner_strings;
      Alcotest.test_case "oversized instance rejected" `Quick
        test_rejects_oversized_instance;
      Alcotest.test_case "single-region degenerate" `Quick
        test_single_region_degenerate;
    ] )
