module Tablefmt = Nocmap_util.Tablefmt

type format =
  [ `Table
  | `Json
  | `Csv
  ]

let format_of_string = function
  | "table" -> Ok `Table
  | "json" -> Ok `Json
  | "csv" -> Ok `Csv
  | other ->
    Error (Printf.sprintf "unknown metrics format %S (expected table, json or csv)" other)

let format_to_string = function
  | `Table -> "table"
  | `Json -> "json"
  | `Csv -> "csv"

let kind_of (s : Metrics.sample) =
  match s.Metrics.value with
  | Metrics.Counter _ -> "counter"
  | Metrics.Gauge _ -> "gauge"
  | Metrics.Histogram _ -> "histogram"

(* %.17g keeps the round-trip exact; trim the common integral case. *)
let float_str x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float x =
  (* JSON has no infinity/nan literals; quantiles can be infinite. *)
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if x = infinity then "\"inf\""
  else if x = neg_infinity then "\"-inf\""
  else if Float.is_nan x then "\"nan\""
  else Printf.sprintf "%.17g" x

let hist_quantiles = [ 0.5; 0.9; 0.99 ]

let quantile_of_buckets ~count buckets q =
  if count = 0 then Float.nan
  else begin
    let target = Float.max 1.0 (Float.round (q *. float_of_int count)) in
    let rec scan acc = function
      | [] -> infinity
      | (bound, n) :: rest ->
        let acc = acc + n in
        if float_of_int acc >= target then bound else scan acc rest
    in
    scan 0 buckets
  end

(* --- metrics --- *)

let metrics_table samples =
  let table =
    Tablefmt.create ~title:"Metrics"
      ~columns:
        [
          ("metric", Tablefmt.Left);
          ("kind", Tablefmt.Left);
          ("value", Tablefmt.Right);
          ("detail", Tablefmt.Left);
        ]
      ()
  in
  List.iter
    (fun (s : Metrics.sample) ->
      let value, detail =
        match s.Metrics.value with
        | Metrics.Counter v | Metrics.Gauge v -> (string_of_int v, s.Metrics.help)
        | Metrics.Histogram { count; sum; buckets } ->
          ( string_of_int count,
            Printf.sprintf "sum=%s p50=%s p90=%s p99=%s" (float_str sum)
              (float_str (quantile_of_buckets ~count buckets 0.5))
              (float_str (quantile_of_buckets ~count buckets 0.9))
              (float_str (quantile_of_buckets ~count buckets 0.99)) )
      in
      Tablefmt.add_row table [ s.Metrics.name; kind_of s; value; detail ])
    samples;
  Tablefmt.render table

let metrics_json samples =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (s : Metrics.sample) ->
      let base =
        Printf.sprintf "{\"name\":\"%s\",\"kind\":\"%s\",\"help\":\"%s\""
          (json_escape s.Metrics.name) (kind_of s) (json_escape s.Metrics.help)
      in
      let rest =
        match s.Metrics.value with
        | Metrics.Counter v | Metrics.Gauge v -> Printf.sprintf ",\"value\":%d}" v
        | Metrics.Histogram { count; sum; buckets } ->
          let quantiles =
            hist_quantiles
            |> List.map (fun q ->
                   Printf.sprintf "\"p%.0f\":%s" (100.0 *. q)
                     (json_float (quantile_of_buckets ~count buckets q)))
            |> String.concat ","
          in
          let nonempty =
            buckets
            |> List.filter (fun (_, n) -> n > 0)
            |> List.map (fun (bound, n) ->
                   Printf.sprintf "[%s,%d]" (json_float bound) n)
            |> String.concat ","
          in
          Printf.sprintf
            ",\"count\":%d,\"sum\":%s,\"quantiles\":{%s},\"buckets\":[%s]}" count
            (json_float sum) quantiles nonempty
      in
      Buffer.add_string buf base;
      Buffer.add_string buf rest;
      Buffer.add_char buf '\n')
    samples;
  Buffer.contents buf

let metrics_csv samples =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "name,kind,value,count,sum\n";
  List.iter
    (fun (s : Metrics.sample) ->
      let value, count, sum =
        match s.Metrics.value with
        | Metrics.Counter v | Metrics.Gauge v -> (string_of_int v, "", "")
        | Metrics.Histogram { count; sum; _ } ->
          (float_str sum, string_of_int count, float_str sum)
      in
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%s,%s,%s\n" s.Metrics.name (kind_of s) value count
           sum))
    samples;
  Buffer.contents buf

let metrics format samples =
  match format with
  | `Table -> metrics_table samples
  | `Json -> metrics_json samples
  | `Csv -> metrics_csv samples

(* --- spans --- *)

let seconds s =
  if s >= 1.0 then Printf.sprintf "%.2f s" s
  else if s >= 1e-3 then Printf.sprintf "%.2f ms" (s *. 1e3)
  else Printf.sprintf "%.0f us" (s *. 1e6)

let spans_table spans =
  let table =
    Tablefmt.create ~title:"Profile (span tree)"
      ~columns:
        [
          ("span", Tablefmt.Left);
          ("calls", Tablefmt.Right);
          ("wall", Tablefmt.Right);
          ("cpu", Tablefmt.Right);
        ]
      ()
  in
  let rec walk depth (s : Timer.span) =
    Tablefmt.add_row table
      [
        String.concat "" (List.init depth (fun _ -> "  ")) ^ s.Timer.span_name;
        string_of_int s.Timer.calls;
        seconds s.Timer.wall_seconds;
        seconds s.Timer.cpu_seconds;
      ];
    List.iter (walk (depth + 1)) s.Timer.children
  in
  List.iter (walk 0) spans;
  Tablefmt.render table

let rec flatten path (s : Timer.span) =
  let path = path @ [ s.Timer.span_name ] in
  (path, s) :: List.concat_map (flatten path) s.Timer.children

let spans_json spans =
  let buf = Buffer.create 512 in
  List.concat_map (flatten []) spans
  |> List.iter (fun (path, (s : Timer.span)) ->
         Buffer.add_string buf
           (Printf.sprintf
              "{\"kind\":\"span\",\"path\":\"%s\",\"calls\":%d,\"wall_seconds\":%.9f,\"cpu_seconds\":%.9f}\n"
              (json_escape (String.concat "/" path))
              s.Timer.calls s.Timer.wall_seconds s.Timer.cpu_seconds));
  Buffer.contents buf

let spans_csv spans =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "path,calls,wall_seconds,cpu_seconds\n";
  List.concat_map (flatten []) spans
  |> List.iter (fun (path, (s : Timer.span)) ->
         Buffer.add_string buf
           (Printf.sprintf "%s,%d,%.9f,%.9f\n"
              (String.concat "/" path)
              s.Timer.calls s.Timer.wall_seconds s.Timer.cpu_seconds));
  Buffer.contents buf

let spans format spans_list =
  match format with
  | `Table -> spans_table spans_list
  | `Json -> spans_json spans_list
  | `Csv -> spans_csv spans_list

(* A counter or gauge still at zero, or a histogram without an
   observation, recorded nothing worth a row. *)
let recorded (s : Metrics.sample) =
  match s.Metrics.value with
  | Metrics.Counter v | Metrics.Gauge v -> v <> 0
  | Metrics.Histogram { count; _ } -> count > 0

let report format =
  let m = metrics format (List.filter recorded (Metrics.snapshot ())) in
  let t = Timer.tree () in
  if t = [] then m else m ^ spans format t
