(** Render a {!Metrics} snapshot and a {!Timer} span tree.

    Three formats, all deterministic for a given snapshot (metrics are
    sorted by name, spans keep execution order):

    - [`Table]: human-oriented ASCII tables;
    - [`Json]: JSON lines — one object per metric with fields [name],
      [kind], [help], and [value] (counters/gauges) or [count]/[sum]/
      [quantiles]/[buckets] (histograms); span objects carry
      [kind = "span"], the slash-joined [path], [calls],
      [wall_seconds] and [cpu_seconds];
    - [`Csv]: [name,kind,value,count,sum] rows (histograms report their
      sum under [value] as well). *)

type format =
  [ `Table
  | `Json
  | `Csv
  ]

val format_of_string : string -> (format, string) result
(** Accepts ["table"], ["json"], ["csv"]. *)

val format_to_string : format -> string

val metrics : format -> Metrics.sample list -> string

val spans : format -> Timer.span list -> string
(** [`Csv] renders [path,calls,wall_seconds,cpu_seconds]; [`Table]
    renders an indented tree. *)

val report : format -> string
(** The full observability report: current {!Metrics.snapshot} plus the
    calling domain's {!Timer.tree}, each rendered with [format].  Metrics
    that recorded nothing (counters and gauges at zero, histograms
    without an observation) are left out. *)
