(* Measurement plumbing, all of it outside the library: spans around
   calls into each layer's public functions, per-objective meters that
   time every cost call, and the process-level readings (GC words, peak
   RSS).  Nothing here runs unless [tracing] is set, so untraced passes
   call the library exactly as a user would. *)

module Objective = Nocmap_mapping.Objective

let now = Unix.gettimeofday
let tracing = ref false

(* ---- spans ----------------------------------------------------------

   Recorded by the main domain only (the layer boundaries the benchmark
   calls); kept in memory and written out once at the end of the run.
   [sums] accumulates every span's duration by name, which is what the
   per-layer metrics read. *)

type span = {
  id : int;
  parent : int;  (** [0] at top level. *)
  name : string;
  start : float;
  stop : float;
}

let spans : span list ref = ref []
let next_id = ref 1
let open_spans : int list ref = ref []
let sums : (string, float) Hashtbl.t = Hashtbl.create 64
let sum name = Option.value (Hashtbl.find_opt sums name) ~default:0.0

let add name v =
  if !tracing then Hashtbl.replace sums name (sum name +. v)

let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> 0 in
    open_spans := id :: !open_spans;
    let start = now () in
    Fun.protect f ~finally:(fun () ->
        let stop = now () in
        open_spans := List.tl !open_spans;
        spans := { id; parent; name; start; stop } :: !spans;
        add name (stop -. start))
  end

let write_spans ~path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f}\n"
        s.id s.parent s.name s.start s.stop)
    (List.rev !spans);
  close_out oc

(* ---- objective meters -----------------------------------------------

   A meter counts and times the calls into one objective.  Objectives
   are single-domain, so each meter is touched by one domain only; the
   registry that lists them for the end-of-run sums is locked because
   decompose builds region objectives on pool domains. *)

type meter = {
  tag : string;
  mutable calls : int;
  mutable seconds : float;
  mutable bound_calls : int;
  mutable pruned : int;  (** [bound_fn] answers that were [At_least]. *)
}

let meters : meter list ref = ref []
let meters_lock = Mutex.create ()

let metered tag (o : Objective.t) =
  if not !tracing then o
  else
    let m = { tag; calls = 0; seconds = 0.0; bound_calls = 0; pruned = 0 } in
    Mutex.protect meters_lock (fun () -> meters := m :: !meters);
    let cost_fn p =
      let t0 = now () in
      let c = o.Objective.cost_fn p in
      m.seconds <- m.seconds +. (now () -. t0);
      m.calls <- m.calls + 1;
      c
    in
    let bound_fn =
      Option.map
        (fun f ~cutoff p ->
          let t0 = now () in
          let b = f ~cutoff p in
          m.seconds <- m.seconds +. (now () -. t0);
          m.calls <- m.calls + 1;
          m.bound_calls <- m.bound_calls + 1;
          (match b with Objective.At_least _ -> m.pruned <- m.pruned + 1 | _ -> ());
          b)
        o.Objective.bound_fn
    in
    { o with Objective.cost_fn; bound_fn }

type totals = { t_calls : int; t_seconds : float; t_bound : int; t_pruned : int }

let totals tag =
  Mutex.protect meters_lock (fun () ->
      List.fold_left
        (fun acc m ->
          if m.tag <> tag then acc
          else
            {
              t_calls = acc.t_calls + m.calls;
              t_seconds = acc.t_seconds +. m.seconds;
              t_bound = acc.t_bound + m.bound_calls;
              t_pruned = acc.t_pruned + m.pruned;
            })
        { t_calls = 0; t_seconds = 0.0; t_bound = 0; t_pruned = 0 }
        !meters)

(* ---- process readings ------------------------------------------------ *)

(* Minor and major words (major includes promotions, as [Gc.stat]
   reports them) allocated by the calling domain and by domains that
   have already terminated; callers measure on one domain. *)
let words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_words)

(* Peak resident set size of this process, from /proc (Linux). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect scan ~finally:(fun () -> close_in ic) in
  float_of_int kb /. 1024.0
