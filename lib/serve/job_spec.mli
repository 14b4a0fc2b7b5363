(** Validated mapping-job specification: the serve wire format.

    A job spec arrives as one JSON object (one line over the socket, or
    one [*.json] file in the spool).  Parsing and validation never
    raise: any malformed, truncated, oversized or type-confused spec
    comes back as [Error reason], which the daemon turns into a
    structured [rejected] reply for that job alone. *)

type app =
  | Builtin of string  (** A {!Nocmap_apps.Catalog} name, e.g. ["fft8"]. *)
  | Path of string     (** A CDCG text file readable by the daemon. *)
  | Inline of string   (** CDCG text embedded in the spec itself. *)

type model =
  | Cwm   (** Communication-weight model (hop symmetry applies). *)
  | Cdcm  (** Communication-dependence-and-computation model. *)

type algorithm =
  | Sa           (** Simulated annealing (checkpointable, resumable). *)
  | Local        (** Steepest-descent local search (checkpointable). *)
  | Greedy       (** Constructive greedy placement. *)
  | Greedy_local (** Greedy seed refined by local search. *)
  | Random       (** Random sampling baseline. *)
  | Es           (** Exhaustive search (small instances only). *)
  | Portfolio of Nocmap_mapping.Portfolio.strategy list
      (** Racing portfolio ({!Nocmap_mapping.Portfolio}, checkpointable
          as one shard).  The optional ["strategies"] field — a JSON
          list of names from [spiral], [greedy], [sa], [tabu],
          [genetic] — selects the racers; it defaults to all five, and
          an unknown or duplicate name rejects the spec. *)
  | Decompose of Nocmap_mapping.Decompose.refiner
      (** Divide-and-conquer mapping ({!Nocmap_mapping.Decompose},
          checkpointable as one shard).  The optional ["refiner"] field
          — [sa], [tabu] or [local] — selects the per-region searcher;
          it defaults to [sa]. *)

type budget =
  | Quick     (** The algorithm's reduced-budget configuration. *)
  | Standard  (** The algorithm's default budget. *)

type t = {
  id : string;  (** Unique per state directory; see {!valid_id}. *)
  app : app;
  mesh : Nocmap_noc.Mesh.t;
  routing : Nocmap_noc.Routing.algorithm;
  tech : Nocmap_energy.Technology.t;
  flit_bits : int;
  model : model;
  algorithm : algorithm;
  seed : int;
  budget : budget;
  timeout_ms : int option;
      (** Per-job wall-clock deadline; [None] means no deadline. *)
}

val valid_id : string -> bool
(** 1-64 characters from [[A-Za-z0-9._-]], not starting with ['.'] or
    ['-'] — ids name checkpoint shards and reply files, so the alphabet
    is filesystem-safe by construction. *)

val to_json : t -> Nocmap_persist.Json.t
(** Canonical wire form; [of_json (to_json t)] round-trips. *)

val of_json : Nocmap_persist.Json.t -> (t, string) result
(** Validates field-by-field with defaults: noc ["3x3"], routing
    ["xy"], tech ["0.07um"], flit [16], model ["cdcm"], algorithm
    ["sa"], seed [1], budget ["standard"], no timeout.  Fields it
    does not know are ignored, so records written by older releases
    (which carried an ["incremental"] flag) still parse.  Never raises. *)

val of_string : string -> (t, string) result
(** {!of_json} after JSON parsing, with a 1 MiB size guard.  Never
    raises, whatever the input bytes. *)

val max_flit_bits : int
(** Widest accepted link, 4096 bits; the narrowest is 1. *)

val check_flit_bits : int -> (int, string) result
(** [Ok bits] when [bits] lies in 1-{!max_flit_bits}, else an error
    naming the range.  The ["flit"] field and the CLI [--flit] flag
    share it. *)

val load_app : app -> (Nocmap_model.Cdcg.t, string) result
(** Loads the application: catalog lookup, file read (errors are
    path-prefixed) or inline parse.  Never raises. *)

val fit_app :
  mesh:Nocmap_noc.Mesh.t ->
  params:Nocmap_energy.Noc_params.t ->
  Nocmap_model.Cdcg.t ->
  (Nocmap_model.Cdcg.t, string) result
(** [Error] naming both sizes when the application has more cores than
    [mesh] has tiles, or naming the limit when a simulation under
    [params] could exceed the simulator's encoding limits
    ({!Nocmap_sim.Wormhole.check_limits}). *)

val params : t -> Nocmap_energy.Noc_params.t
(** The NoC timing the spec runs under: the paper's timing with the
    spec's flit width. *)

val resolve_app : t -> (Nocmap_model.Cdcg.t, string) result
(** {!load_app}, then {!fit_app} on the spec's mesh and {!params}.
    Never raises. *)

val fingerprint : t -> string
(** Deterministic serialization of the full spec, used as the
    checkpoint-meta guard so a resumed daemon refuses to continue a
    checkpoint under a changed spec. *)

val model_to_string : model -> string
val model_of_string : string -> (model, string) result
val algorithm_to_string : algorithm -> string
val algorithm_of_string : string -> (algorithm, string) result
val budget_to_string : budget -> string
val budget_of_string : string -> (budget, string) result
