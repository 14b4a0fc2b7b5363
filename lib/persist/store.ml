type t = { dir : string }

let open_ ~dir =
  Fsutil.mkdir_p dir;
  { dir }

let dir t = t.dir

let sanitize key =
  let safe =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> c
        | _ -> '_')
      key
  in
  let safe = if String.length safe > 60 then String.sub safe 0 60 else safe in
  Printf.sprintf "%s-%s" safe (Checksum.to_hex (Checksum.crc32 key))

let shard_path t ~key = Filename.concat t.dir (sanitize key ^ ".jsonl")
let manifest_path t = Filename.concat t.dir "manifest.json"

let write_manifest t json =
  Fsutil.write_atomic ~path:(manifest_path t) (Json.to_string json ^ "\n")

let read_manifest t =
  let path = manifest_path t in
  match Fsutil.read_file path with
  | exception Sys_error msg -> Error msg
  | content -> (
    match Json.of_string (String.trim content) with
    | Ok j -> Ok j
    | Error e -> Error (Printf.sprintf "%s: %s" path e))
