type t = {
  name : string;
  core_names : string array;
  volume : int array array;
  src : int array;
  dst : int array;
  bits : int array;
}

let duplicate_name names =
  let seen = Hashtbl.create 16 in
  let rec scan i =
    if i >= Array.length names then None
    else if Hashtbl.mem seen names.(i) then Some names.(i)
    else begin
      Hashtbl.add seen names.(i) ();
      scan (i + 1)
    end
  in
  scan 0

(* The connection arrays are laid out once, in (src, dst) order, so
   every evaluator walks NCC entries instead of the cores^2 matrix. *)
let flatten ~name ~core_names volume =
  let n = Array.length core_names in
  let count = ref 0 in
  Array.iter (Array.iter (fun w -> if w > 0 then incr count)) volume;
  let src = Array.make !count 0
  and dst = Array.make !count 0
  and bits = Array.make !count 0 in
  let i = ref 0 in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      let w = volume.(a).(b) in
      if w > 0 then begin
        src.(!i) <- a;
        dst.(!i) <- b;
        bits.(!i) <- w;
        incr i
      end
    done
  done;
  { name; core_names; volume; src; dst; bits }

let create ~name ~core_names ~edges =
  let n = Array.length core_names in
  let error fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  if n = 0 then error "CWG has no cores"
  else
    match duplicate_name core_names with
    | Some dup -> error "duplicate core name %S" dup
    | None ->
      let volume = Array.make_matrix n n 0 in
      let rec fill = function
        | [] -> Ok (flatten ~name ~core_names volume)
        | (src, dst, bits) :: rest ->
          if src < 0 || src >= n || dst < 0 || dst >= n then
            error "edge (%d, %d): core index out of range" src dst
          else if src = dst then error "edge (%d, %d): self communication" src dst
          else if bits <= 0 then error "edge (%d, %d): volume must be positive" src dst
          else begin
            volume.(src).(dst) <- volume.(src).(dst) + bits;
            fill rest
          end
      in
      fill edges

let create_exn ~name ~core_names ~edges =
  match create ~name ~core_names ~edges with
  | Ok t -> t
  | Error msg -> invalid_arg ("Cwg.create_exn: " ^ msg)

let of_cdcg (cdcg : Cdcg.t) =
  let edges =
    Array.fold_left
      (fun acc (p : Cdcg.packet) -> (p.Cdcg.src, p.Cdcg.dst, p.Cdcg.bits) :: acc)
      [] cdcg.Cdcg.packets
  in
  create_exn ~name:cdcg.Cdcg.name ~core_names:cdcg.Cdcg.core_names ~edges

let core_count t = Array.length t.core_names

let weight t ~src ~dst =
  let n = core_count t in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Cwg.weight: core index out of range";
  t.volume.(src).(dst)

let ncc t = Array.length t.src

let communications t = List.init (ncc t) (fun i -> (t.src.(i), t.dst.(i), t.bits.(i)))

let total_bits t = Array.fold_left ( + ) 0 t.bits

let to_digraph t =
  let g = Nocmap_graph.Digraph.create ~n:(core_count t) in
  List.iter
    (fun (src, dst, w) -> Nocmap_graph.Digraph.add_edge g ~src ~dst ~label:w)
    (communications t);
  g
