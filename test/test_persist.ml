(* Crash-safe checkpointing: journal framing, corruption handling, and
   the headline guarantee — a search (or whole driver run) killed at an
   arbitrary point and resumed from its journal is bit-identical to the
   uninterrupted run. *)

module Mesh = Nocmap_noc.Mesh
module Crg = Nocmap_noc.Crg
module Technology = Nocmap_energy.Technology
module Noc_params = Nocmap_energy.Noc_params
module Mapping = Nocmap_mapping
module Rng = Nocmap_util.Rng
module Domain_pool = Nocmap_util.Domain_pool
module Generator = Nocmap_tgff.Generator
module Json = Nocmap_persist.Json
module Journal = Nocmap_persist.Journal
module Store = Nocmap_persist.Store
module Fsutil = Nocmap_persist.Fsutil
module Fig1 = Nocmap_apps.Fig1

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

(* --- journal framing --- *)

let meta = Json.Assoc [ ("who", Json.Str "test"); ("n", Json.Int 3) ]

let records =
  [
    Json.Assoc [ ("step", Json.Int 1) ];
    Json.Assoc [ ("step", Json.Int 2); ("cost", Json.float_ 0.125) ];
    Json.Str "finale";
  ]

let test_journal_roundtrip () =
  let path = Filename.temp_file "nocmap" ".jsonl" in
  let j = Journal.create ~path ~meta in
  List.iter (Journal.append_exn j) records;
  Journal.close j;
  let loaded =
    match Journal.load ~path with Ok l -> l | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "meta preserved" true (loaded.Journal.meta = meta);
  Alcotest.(check bool) "records preserved" true (loaded.Journal.records = records);
  Alcotest.(check bool) "no torn tail" false loaded.Journal.dropped_tail

let test_journal_drops_torn_tail () =
  let path = Filename.temp_file "nocmap" ".jsonl" in
  let j = Journal.create ~path ~meta in
  List.iter (Journal.append_exn j) records;
  Journal.close j;
  (* Simulate a crash mid-append: a final line with no newline. *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "{\"crc\":\"deadbeef\",\"data\":{\"step\"";
  close_out oc;
  let j, loaded =
    match Journal.reopen ~path with Ok v -> v | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "tail dropped" true loaded.Journal.dropped_tail;
  Alcotest.(check bool) "records intact" true (loaded.Journal.records = records);
  (* The torn bytes are truncated away, so appending keeps the file sane. *)
  Journal.append_exn j (Json.Str "after-crash");
  Journal.close j;
  let reloaded =
    match Journal.load ~path with Ok l -> l | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "append after reopen" true
    (reloaded.Journal.records = records @ [ Json.Str "after-crash" ])

let test_journal_bad_crc_is_loud () =
  let path = Filename.temp_file "nocmap" ".jsonl" in
  let j = Journal.create ~path ~meta in
  List.iter (Journal.append_exn j) records;
  Journal.close j;
  (* Flip one payload byte of a complete (newline-terminated) record. *)
  let contents = Fsutil.read_file path in
  let target = "{\"step\":1}" in
  let idx =
    let rec find i =
      if String.sub contents i (String.length target) = target then i
      else find (i + 1)
    in
    find 0
  in
  let corrupted = Bytes.of_string contents in
  Bytes.set corrupted (idx + String.length "{\"step\":") '7';
  Fsutil.write_atomic ~path (Bytes.to_string corrupted);
  match Journal.load ~path with
  | Ok _ -> Alcotest.fail "corrupt record silently accepted"
  | Error e ->
    Alcotest.(check bool) "error names the file" true
      (String.length e > 0 && String.sub e 0 (String.length path) = path)

(* A failed append must come back as a typed error the serve engine can
   triage: closed-channel failures are permanent (retrying is pointless),
   and both the [result] and exception paths carry the journal path. *)
let test_journal_append_error_is_typed () =
  let path = Filename.temp_file "nocmap" ".jsonl" in
  let j = Journal.create ~path ~meta in
  Journal.close j;
  (match Journal.append j (Json.Str "late") with
  | Ok () -> Alcotest.fail "append on a closed journal succeeded"
  | Error e ->
    Alcotest.(check string) "error names the journal" path e.Journal.journal_path;
    Alcotest.(check bool)
      "closed channel is not retryable" false e.Journal.retryable;
    Alcotest.(check bool) "reason is populated" true
      (String.length e.Journal.reason > 0));
  (match Journal.append_exn j (Json.Str "late") with
  | () -> Alcotest.fail "append_exn on a closed journal succeeded"
  | exception Journal.Append_failed e ->
    Alcotest.(check string) "exception names the journal" path
      e.Journal.journal_path;
    Alcotest.(check bool) "exception not retryable" false e.Journal.retryable);
  Sys.remove path

(* --- store memoization --- *)

let test_memoize_replays () =
  let store = Store.open_ ~dir:(temp_dir ()) in
  let calls = ref 0 in
  let f () =
    incr calls;
    Json.Assoc [ ("answer", Json.Int 42) ]
  in
  let meta = Json.Assoc [ ("inputs", Json.Str "x") ] in
  let a = Store.memoize store ~key:"k" ~meta f in
  let b = Store.memoize store ~key:"k" ~meta f in
  Alcotest.(check int) "computed once" 1 !calls;
  Alcotest.(check bool) "replayed value" true (a = b)

let test_memoize_meta_mismatch_is_loud () =
  let store = Store.open_ ~dir:(temp_dir ()) in
  let f () = Json.Int 1 in
  ignore (Store.memoize store ~key:"k" ~meta:(Json.Str "run-a") f);
  Alcotest.(check bool) "mismatch raises" true
    (match Store.memoize store ~key:"k" ~meta:(Json.Str "run-b") f with
    | exception Failure _ -> true
    | _ -> false)

(* --- search kill + resume --- *)

let crg = Crg.create (Mesh.create ~cols:2 ~rows:2)

let tech =
  Technology.make ~name:"t" ~feature_nm:100 ~e_rbit:1.0e-12 ~e_lbit:1.0e-12
    ~p_s_router:0.025e-12 ()

let objective =
  Mapping.Objective.cdcm ~tech ~params:Noc_params.paper_example ~crg
    ~cdcg:Fig1.cdcg ()

let sa_config =
  {
    (Mapping.Annealing.default_config ~tiles:4) with
    Mapping.Annealing.max_evaluations = 2_000;
  }

let sa_reference seed =
  Mapping.Annealing.search ~rng:(Rng.create ~seed) ~config:sa_config ~tiles:4
    ~objective ~cores:4 ()

let sa_persisted ~store ?stop seed =
  Mapping.Search_persist.annealing
    ~journal:{ Mapping.Search_persist.store; key = "sa"; every = 100 }
    ~rng:(Rng.create ~seed) ~config:sa_config ~tiles:4 ~objective ?stop
    ~cores:4 ()

let prop_sa_kill_resume_bit_identical =
  QCheck2.Test.make ~name:"SA killed at any point resumes bit-identically"
    ~count:(Test_util.prop_count 15)
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 0 2_500))
    (fun (seed, kill_at) ->
      let reference = sa_reference seed in
      let store = Store.open_ ~dir:(temp_dir ()) in
      ignore (sa_persisted ~store ~stop:(stop_after kill_at) seed);
      let resumed = sa_persisted ~store seed in
      let replayed = sa_persisted ~store seed in
      check_result "resumed vs uninterrupted" reference resumed;
      check_result "replayed vs uninterrupted" reference replayed;
      true)

let ls_initial = [| 2; 0; 3; 1 |]

let ls_reference () =
  Mapping.Local_search.search ~objective ~tiles:4 ~initial:ls_initial ()

let ls_persisted ~store ?stop () =
  Mapping.Search_persist.local_search
    ~journal:{ Mapping.Search_persist.store; key = "ls"; every = 3 }
    ~objective ~tiles:4 ~initial:ls_initial ?stop ()

let prop_ls_kill_resume_bit_identical =
  QCheck2.Test.make ~name:"local search killed at any point resumes bit-identically"
    ~count:(Test_util.prop_count 15)
    QCheck2.Gen.(int_range 0 40)
    (fun kill_at ->
      let reference = ls_reference () in
      let store = Store.open_ ~dir:(temp_dir ()) in
      ignore (ls_persisted ~store ~stop:(stop_after kill_at) ());
      let resumed = ls_persisted ~store () in
      check_result "resumed vs uninterrupted" reference resumed;
      true)

(* The uninterrupted descent takes two passes.  [stop_after 3] lets the
   wrapper's entry poll and both pass boundaries through and fires only
   after the descent has finished on its own: that finished descent must
   not be journaled as resumable, or the resume repeats its last pass
   and reports 37 evaluations instead of 25. *)
let test_ls_stop_after_last_pass () =
  let store = Store.open_ ~dir:(temp_dir ()) in
  ignore (ls_persisted ~store ~stop:(stop_after 3) ());
  check_result "resumed vs uninterrupted" (ls_reference ()) (ls_persisted ~store ())

(* A checkpoint cadence that never fires must not perturb the search:
   the persisted run falls out of the journal as one done record. *)
let test_sa_persisted_matches_plain () =
  let reference = sa_reference 7 in
  let store = Store.open_ ~dir:(temp_dir ()) in
  let persisted = sa_persisted ~store 7 in
  check_result "persisted vs plain" reference persisted

(* Without a journal every wrapper is exactly its searcher: same
   result (and full report) bit for bit, so callers need no
   plain-versus-persisted branch. *)
let test_unjournaled_equals_plain () =
  check_result "annealing" (sa_reference 7)
    (Mapping.Search_persist.annealing ~rng:(Rng.create ~seed:7) ~config:sa_config
       ~tiles:4 ~objective ~cores:4 ());
  check_result "local search" (ls_reference ())
    (Mapping.Search_persist.local_search ~objective ~tiles:4 ~initial:ls_initial ());
  let cwg = Nocmap_model.Cwg.of_cdcg Fig1.cdcg in
  let fresh () =
    Mapping.Objective.cdcm ~tech ~params:Noc_params.paper_example ~crg
      ~cdcg:Fig1.cdcg ()
  in
  let portfolio_config = Mapping.Portfolio.quick_config ~tiles:4 in
  let strategies = Mapping.Portfolio.all_strategies in
  let plain =
    Mapping.Portfolio.search ~rng:(Rng.create ~seed:7) ~config:portfolio_config
      ~strategies ~tech ~crg ~cwg ~objective_for:(fun _ -> fresh ()) ()
  in
  let wrapped =
    Mapping.Search_persist.portfolio ~rng:(Rng.create ~seed:7)
      ~config:portfolio_config ~strategies ~tech ~crg ~cwg ~objective_name:"cdcm"
      ~objective_for:(fun _ -> fresh ()) ()
  in
  check_result "portfolio" plain.Mapping.Portfolio.result
    wrapped.Mapping.Portfolio.result;
  Alcotest.(check bool) "portfolio report" true (plain = wrapped);
  let decompose_config = Mapping.Decompose.quick_config ~tiles:4 in
  let plain =
    Mapping.Decompose.search ~rng:(Rng.create ~seed:7) ~config:decompose_config
      ~crg ~cwg ~objective_for:fresh ()
  in
  let wrapped =
    Mapping.Search_persist.decompose ~rng:(Rng.create ~seed:7)
      ~config:decompose_config ~crg ~cwg ~objective_name:"cdcm"
      ~objective_for:fresh ()
  in
  check_result "decompose" plain.Mapping.Decompose.result
    wrapped.Mapping.Decompose.result;
  Alcotest.(check bool) "decompose report" true (plain = wrapped)

(* --- leg codec bytes ---

   Portfolio racers and decompose regions share one leg codec.  These
   fixed checkpoints hold every leg tag (sa, tabu, ga, ls, done); their
   encodings are pinned to the bytes earlier releases wrote, so existing
   checkpoint directories keep resuming. *)

let fixture_sa =
  {
    Mapping.Annealing.rng_state = 0x0123456789abcdefL;
    evaluations = 42;
    current = [| 1; 0; 2 |];
    current_cost = 0.1;
    best = [| 0; 1; 2 |];
    best_cost = 0.0625;
    temperature = 1.5;
    floor = 1e-3;
    stale_levels = 2;
    moves = 7;
    improved_this_level = true;
    accepted = 30;
    rejected = 11;
    cutoff_hits = 3;
  }

let fixture_tabu =
  {
    Mapping.Tabu.rng_state = -5L;
    evaluations = 17;
    iteration = 4;
    current = [| 2; 1; 0 |];
    current_cost = 3.25;
    best = [| 2; 0; 1 |];
    best_cost = 3.0;
    stale = 1;
    tabu = [ (0, 2, 9); (1, 1, 7) ];
    cutoff_hits = 0;
  }

let fixture_ga =
  {
    Mapping.Genetic.rng_state = 99L;
    evaluations = 12;
    generation = 2;
    population = [| [| 0; 1; 2 |]; [| 2; 1; 0 |] |];
    fitness = [| 1.0; infinity |];
    best = [| 0; 1; 2 |];
    best_cost = 1.0;
    stale = 0;
    cutoff_hits = 1;
  }

let fixture_ls =
  { Mapping.Local_search.current = [| 1; 2; 0 |]; current_cost = 2.5; evaluations = 9; cutoff_hits = 2 }

let fixture_done = { Mapping.Objective.placement = [| 0; 2; 1 |]; cost = 0.3; evaluations = 25 }

let fixture_portfolio =
  {
    Mapping.Portfolio.round = 3;
    in_round = true;
    seeds = [ (Mapping.Portfolio.Spiral, fixture_done) ];
    legs =
      [
        (Mapping.Portfolio.Sa, Mapping.Leg.Sa_running fixture_sa);
        (Mapping.Portfolio.Tabu, Mapping.Leg.Done fixture_done);
        (Mapping.Portfolio.Genetic, Mapping.Leg.Genetic_running fixture_ga);
      ];
    best = [| 0; 1; 2 |];
    best_cost = 0.0625;
    best_by = Mapping.Portfolio.Sa;
    seed_evaluations = 1;
    incumbent_updates = 2;
    cutoff_tightenings = 1;
    wins =
      Mapping.Portfolio.[ (Spiral, 1); (Sa, 2); (Tabu, 0); (Genetic, 0) ];
    ceilings =
      Mapping.Portfolio.[ (Sa, infinity); (Tabu, 0.078125); (Genetic, 0.1) ];
    round_starts = Mapping.Portfolio.[ (Sa, 40); (Tabu, 25); (Genetic, 10) ];
  }

let fixture_decompose =
  {
    Mapping.Decompose.region_states =
      [
        Mapping.Leg.Sa_running fixture_sa;
        Mapping.Leg.Tabu_running fixture_tabu;
        Mapping.Leg.Local_running fixture_ls;
        Mapping.Leg.Done fixture_done;
      ];
    seed = fixture_done;
    base = Some { fixture_done with Mapping.Objective.evaluations = 70 };
    polish = Some fixture_ls;
  }

let golden_portfolio_json =
  String.concat ""
    [
      {|{"round":3,"in_round":true,"seeds":[{"strategy":"spiral",|};
      {|"value":{"placement":[0,2,1],"cost":"0x1.3333333333333p-2",|};
      {|"evaluations":25}}],"legs":[{"strategy":"sa","value":{"state":"sa",|};
      {|"value":{"rng":"0x123456789abcdef","evaluations":42,"current":[1,0,|};
      {|2],"current_cost":"0x1.999999999999ap-4","best":[0,1,2],|};
      {|"best_cost":"0x1p-4","temperature":"0x1.8p+0",|};
      {|"floor":"0x1.0624dd2f1a9fcp-10","stale_levels":2,"moves":7,|};
      {|"improved":true,"accepted":30,"rejected":11,"cutoff_hits":3}}},|};
      {|{"strategy":"tabu","value":{"state":"done","value":{"placement":[0,|};
      {|2,1],"cost":"0x1.3333333333333p-2","evaluations":25}}},|};
      {|{"strategy":"genetic","value":{"state":"ga","value":{"rng":"0x63",|};
      {|"evaluations":12,"generation":2,"population":[[0,1,2],[2,1,0]],|};
      {|"fitness":["0x1p+0","infinity"],"best":[0,1,2],"best_cost":"0x1p+0",|};
      {|"stale":0,"cutoff_hits":1}}}],"best":[0,1,2],"best_cost":"0x1p-4",|};
      {|"best_by":"sa","seed_evaluations":1,"incumbent_updates":2,|};
      {|"cutoff_tightenings":1,"wins":[{"strategy":"spiral","value":1},|};
      {|{"strategy":"sa","value":2},{"strategy":"tabu","value":0},|};
      {|{"strategy":"genetic","value":0}],"ceilings":[{"strategy":"sa",|};
      {|"value":"infinity"},{"strategy":"tabu","value":"0x1.4p-4"},|};
      {|{"strategy":"genetic","value":"0x1.999999999999ap-4"}],|};
      {|"round_starts":[{"strategy":"sa","value":40},{"strategy":"tabu",|};
      {|"value":25},{"strategy":"genetic","value":10}]}|};
    ]

let golden_decompose_json =
  String.concat ""
    [
      {|{"regions":[{"state":"sa","value":{"rng":"0x123456789abcdef",|};
      {|"evaluations":42,"current":[1,0,2],|};
      {|"current_cost":"0x1.999999999999ap-4","best":[0,1,2],|};
      {|"best_cost":"0x1p-4","temperature":"0x1.8p+0",|};
      {|"floor":"0x1.0624dd2f1a9fcp-10","stale_levels":2,"moves":7,|};
      {|"improved":true,"accepted":30,"rejected":11,"cutoff_hits":3}},|};
      {|{"state":"tabu","value":{"rng":"0xfffffffffffffffb",|};
      {|"evaluations":17,"iteration":4,"current":[2,1,0],|};
      {|"current_cost":"0x1.ap+1","best":[2,0,1],"best_cost":"0x1.8p+1",|};
      {|"stale":1,"tabu":[[0,2,9],[1,1,7]],"cutoff_hits":0}},{"state":"ls",|};
      {|"value":{"current":[1,2,0],"current_cost":"0x1.4p+1",|};
      {|"evaluations":9,"cutoff_hits":2}},{"state":"done",|};
      {|"value":{"placement":[0,2,1],"cost":"0x1.3333333333333p-2",|};
      {|"evaluations":25}}],"seed":{"placement":[0,2,1],|};
      {|"cost":"0x1.3333333333333p-2","evaluations":25},|};
      {|"base":{"placement":[0,2,1],"cost":"0x1.3333333333333p-2",|};
      {|"evaluations":70},"polish":{"current":[1,2,0],|};
      {|"current_cost":"0x1.4p+1","evaluations":9,"cutoff_hits":2}}|};
    ]

let check_codec_bytes msg ~encode ~decode ~golden value =
  let encoded = Json.to_string (encode value) in
  Alcotest.(check string) (msg ^ ": golden bytes") golden encoded;
  let decoded =
    match Json.of_string golden with
    | Ok j -> decode j
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) (msg ^ ": decodes to the fixture") true (decoded = value);
  Alcotest.(check string)
    (msg ^ ": re-encodes byte-identically") golden
    (Json.to_string (encode decoded))

let test_leg_codec_bytes () =
  check_codec_bytes "portfolio"
    ~encode:Mapping.Search_persist.portfolio_checkpoint_json
    ~decode:Mapping.Search_persist.portfolio_checkpoint_of_json
    ~golden:golden_portfolio_json fixture_portfolio;
  check_codec_bytes "decompose"
    ~encode:Mapping.Search_persist.decompose_checkpoint_json
    ~decode:Mapping.Search_persist.decompose_checkpoint_of_json
    ~golden:golden_decompose_json fixture_decompose

(* --- driver kill + resume --- *)

let small_instance seed =
  let spec =
    Generator.default_spec ~name:"exp" ~cores:5 ~packets:24 ~total_bits:6_000
  in
  (Mesh.create ~cols:3 ~rows:2, Generator.generate (Rng.create ~seed) spec)

let table2_instances = [ small_instance 41; small_instance 42 ]

let table2_run ?pool ?stop ?journal () =
  Nocmap.Table2.render
    (Nocmap.Table2.run ~config:Nocmap.Experiment.quick_config
       ~instances:table2_instances ?pool ?stop ?journal ~seed:41 ())

let table2_kill_resume ?pool kill_at =
  let reference = table2_run () in
  let store = Store.open_ ~dir:(temp_dir ()) in
  let journal = { Mapping.Search_persist.store; key = "t2"; every = 50 } in
  ignore (table2_run ?pool ~stop:(stop_after kill_at) ~journal ());
  let resumed = table2_run ~journal () in
  Alcotest.(check string) "resumed table bit-identical" reference resumed

let test_table2_kill_resume () = table2_kill_resume 300

let test_table2_kill_resume_pooled () =
  Domain_pool.with_pool ~jobs:4 (fun pool -> table2_kill_resume ~pool 300)

let test_faults_kill_resume () =
  let mesh = Mesh.create ~cols:2 ~rows:3 in
  let cdcg = Option.get (Nocmap_apps.Catalog.find "fft8") in
  let config =
    {
      Nocmap.Fault_campaign.default_config with
      Nocmap.Fault_campaign.experiment = Nocmap.Experiment.quick_config;
      multi_fault_count = 4;
    }
  in
  let run ?stop ?journal () =
    Nocmap.Fault_campaign.run ~config ?stop ?journal ~mesh ~seed:11 cdcg
  in
  let reference = run () in
  let store = Store.open_ ~dir:(temp_dir ()) in
  let journal = { Mapping.Search_persist.store; key = "faults"; every = 50 } in
  ignore (run ~stop:(stop_after 200) ~journal ());
  let resumed = run ~journal () in
  Alcotest.(check bool) "campaign record bit-identical" true
    (compare reference resumed = 0);
  Alcotest.(check string) "campaign CSV bit-identical"
    (Nocmap.Fault_campaign.to_csv reference)
    (Nocmap.Fault_campaign.to_csv resumed)

(* Resuming over a store whose fingerprint disagrees with the search
   must fail loudly, not silently mix two runs. *)
let test_resume_fingerprint_mismatch_is_loud () =
  let store = Store.open_ ~dir:(temp_dir ()) in
  ignore (sa_persisted ~store ~stop:(stop_after 500) 3);
  Alcotest.(check bool) "different seed rejected" true
    (match sa_persisted ~store 4 with
    | exception Failure _ -> true
    | _ -> false)

let suite =
  ( "persist",
    [
      Alcotest.test_case "journal roundtrip" `Quick test_journal_roundtrip;
      Alcotest.test_case "journal drops torn tail" `Quick
        test_journal_drops_torn_tail;
      Alcotest.test_case "journal bad CRC is loud" `Quick
        test_journal_bad_crc_is_loud;
      Alcotest.test_case "journal append error is typed" `Quick
        test_journal_append_error_is_typed;
      Alcotest.test_case "memoize replays" `Quick test_memoize_replays;
      Alcotest.test_case "memoize meta mismatch is loud" `Quick
        test_memoize_meta_mismatch_is_loud;
      QCheck_alcotest.to_alcotest prop_sa_kill_resume_bit_identical;
      QCheck_alcotest.to_alcotest prop_ls_kill_resume_bit_identical;
      Alcotest.test_case "local search stopped after its last pass resumes" `Quick
        test_ls_stop_after_last_pass;
      Alcotest.test_case "persisted SA matches plain SA" `Quick
        test_sa_persisted_matches_plain;
      Alcotest.test_case "unjournaled wrappers equal the plain searchers" `Quick
        test_unjournaled_equals_plain;
      Alcotest.test_case "leg codec bytes are pinned" `Quick test_leg_codec_bytes;
      Alcotest.test_case "table2 kill+resume bit-identical" `Quick
        test_table2_kill_resume;
      Alcotest.test_case "table2 pooled kill+resume bit-identical" `Quick
        test_table2_kill_resume_pooled;
      Alcotest.test_case "fault campaign kill+resume bit-identical" `Quick
        test_faults_kill_resume;
      Alcotest.test_case "resume fingerprint mismatch is loud" `Quick
        test_resume_fingerprint_mismatch_is_loud;
    ] )
