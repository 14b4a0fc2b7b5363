(* Fault-injection campaign: determinism, parallel bit-identity, report
   shape, and resuming a journaled campaign. *)

module Mesh = Nocmap_noc.Mesh
module Domain_pool = Nocmap_util.Domain_pool
module Fault_campaign = Nocmap.Fault_campaign
module Robustness = Nocmap.Robustness
module Json = Nocmap_persist.Json
module Journal = Nocmap_persist.Journal
module Store = Nocmap_persist.Store
module Fsutil = Nocmap_persist.Fsutil

let mesh = Mesh.create ~cols:2 ~rows:3
let cdcg = Option.get (Nocmap_apps.Catalog.find "fft8")

let config =
  {
    Fault_campaign.default_config with
    Fault_campaign.experiment = Nocmap.Experiment.quick_config;
    multi_fault_count = 4;
  }

let run ?pool () = Fault_campaign.run ~config ?pool ~mesh ~seed:11 cdcg

let test_deterministic () =
  let a = run () and b = run () in
  Alcotest.(check string) "CSV identical across runs" (Fault_campaign.to_csv a)
    (Fault_campaign.to_csv b);
  Alcotest.(check string) "render identical across runs"
    (Fault_campaign.render a) (Fault_campaign.render b)

let test_pool_bit_identical () =
  let sequential = run () in
  let pooled = Domain_pool.with_pool ~jobs:3 (fun pool -> run ~pool ()) in
  Alcotest.(check string) "sequential vs pooled CSV"
    (Fault_campaign.to_csv sequential) (Fault_campaign.to_csv pooled);
  Alcotest.(check string) "sequential vs pooled render"
    (Fault_campaign.render sequential) (Fault_campaign.render pooled)

let test_scenario_set () =
  let t = run () in
  (* Every physical directed link once, plus the sampled multi-fault
     scenarios. *)
  let physical = List.length (Nocmap_noc.Link.all mesh) in
  Alcotest.(check int) "scenario count" (physical + 4)
    (List.length t.Fault_campaign.scenarios);
  List.iteri
    (fun i s ->
      let expected = if i < physical then 1 else config.Fault_campaign.multi_fault_k in
      Alcotest.(check int)
        (Printf.sprintf "scenario %d fault count" i)
        expected
        (Nocmap_noc.Fault.fault_count s.Fault_campaign.scenario))
    t.Fault_campaign.scenarios;
  (* Spreads can only describe non-negative drop counts. *)
  Alcotest.(check bool) "dropped spread sane" true
    (t.Fault_campaign.cdcm_report.Fault_campaign.dropped.Robustness.minimum >= 0.0)

let test_render_and_csv_shape () =
  let t = run () in
  let rendered = Fault_campaign.render t in
  Test_util.check_contains ~msg:"title" ~needle:"Fault campaign" rendered;
  Test_util.check_contains ~msg:"CWM rows" ~needle:"CWM" rendered;
  Test_util.check_contains ~msg:"CDCM rows" ~needle:"CDCM" rendered;
  Test_util.check_contains ~msg:"energy metric" ~needle:"energy inflation %" rendered;
  Test_util.check_contains ~msg:"latency metric" ~needle:"latency inflation %"
    rendered;
  Test_util.check_contains ~msg:"drop metric" ~needle:"dropped packets" rendered;
  let csv = Fault_campaign.to_csv t in
  let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "header + one line per scenario"
    (1 + List.length t.Fault_campaign.scenarios)
    (List.length lines);
  Test_util.check_contains ~msg:"csv header" ~needle:"cwm_total_j" (List.hd lines);
  List.iter
    (fun line ->
      Alcotest.(check int) "12 columns" 12
        (List.length (String.split_on_char ',' line)))
    lines

let test_no_multi_faults () =
  let t =
    Fault_campaign.run
      ~config:{ config with Fault_campaign.multi_fault_count = 0 }
      ~mesh ~seed:11 cdcg
  in
  Alcotest.(check int) "single-link scenarios only"
    (List.length (Nocmap_noc.Link.all mesh))
    (List.length t.Fault_campaign.scenarios)

let temp_dir () =
  let path = Filename.temp_file "nocmap" ".ckpt" in
  Sys.remove path;
  Fsutil.mkdir_p path;
  path

(* A sticky stop: false for the first [n] polls, true ever after. *)
let stop_after n =
  let calls = Atomic.make 0 in
  fun () -> Atomic.fetch_and_add calls 1 >= n

(* The shard files of a store, each loaded. *)
let shards store =
  Sys.readdir (Store.dir store)
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
  |> List.map (fun f ->
         let path = Filename.concat (Store.dir store) f in
         match Journal.load ~path with
         | Ok l -> (f, l)
         | Error msg -> Alcotest.fail msg)

let record_type r =
  match Json.find "type" r with Some (Json.Str t) -> t | _ -> ""

(* A search-leg journal: a searcher fingerprint in the header, then
   only [progress] snapshots and at most one [done] result. *)
let check_leg_journal (file, (l : Journal.loaded)) =
  Alcotest.(check bool)
    (file ^ ": header names a search algorithm") true
    (match Json.find "algorithm" l.Journal.meta with
    | Some (Json.Str _) -> true
    | _ -> false);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (file ^ ": progress or done record") true
        (List.mem (record_type r) [ "progress"; "done" ]))
    l.Journal.records

let test_journal_resume () =
  let reference = run () in
  let store = Store.open_ ~dir:(temp_dir ()) in
  let journal = { Nocmap_mapping.Search_persist.store; key = "faults"; every = 50 } in
  let journaled ?stop () =
    Fault_campaign.run ~config ?stop ~journal ~mesh ~seed:11 cdcg
  in
  ignore (journaled ~stop:(stop_after 300) ());
  Alcotest.(check bool) "the stop left a search unfinished" true
    (List.exists
       (fun (_, (l : Journal.loaded)) ->
         not (List.exists (fun r -> record_type r = "done") l.Journal.records))
       (shards store));
  let resumed = journaled () in
  Alcotest.(check string) "resumed render equals the unjournaled run"
    (Fault_campaign.render reference) (Fault_campaign.render resumed);
  Alcotest.(check string) "resumed CSV equals the unjournaled run"
    (Fault_campaign.to_csv reference) (Fault_campaign.to_csv resumed);
  let files = shards store in
  Alcotest.(check int) "one shard per mapping search" 2 (List.length files);
  List.iter
    (fun ((file, _) as shard) ->
      Alcotest.(check bool) (file ^ ": no scenario shard") false
        (Test_util.contains_substring ~needle:"scn" file);
      check_leg_journal shard)
    files

let suite =
  ( "fault campaign",
    [
      Alcotest.test_case "deterministic" `Quick test_deterministic;
      Alcotest.test_case "pool bit-identical" `Quick test_pool_bit_identical;
      Alcotest.test_case "scenario set" `Quick test_scenario_set;
      Alcotest.test_case "render and csv shape" `Quick test_render_and_csv_shape;
      Alcotest.test_case "no multi faults" `Quick test_no_multi_faults;
      Alcotest.test_case "journaled campaign resumes" `Quick test_journal_resume;
    ] )
