type perm = int array

type level =
  | Hops
  | Paths

type t = {
  mesh : Mesh.t;
  group : perm array;  (* verified automorphisms, identity first *)
}

(* Every rigid automorphism candidate of a [d0 x d1 x d2] box factors as
   a per-axis reflection followed by an axis permutation.  The axis
   permutations are listed identity-first with the x/y transpose second,
   and the reflection masks count up with x as the low bit, so on a
   planar ([layers = 1]) mesh the generated list reproduces the
   historical dihedral candidate order element for element: the four
   planar reflections, then (on a square) the four transposed ones,
   with the z-reflections collapsing onto them and deduplicating away. *)
let axis_perms =
  [
    [| 0; 1; 2 |];
    [| 1; 0; 2 |];
    [| 0; 2; 1 |];
    [| 2; 1; 0 |];
    [| 1; 2; 0 |];
    [| 2; 0; 1 |];
  ]

let candidates mesh =
  let dims = [| mesh.Mesh.cols; mesh.Mesh.rows; mesh.Mesh.layers |] in
  (* An axis permutation is shape-compatible when every axis keeps its
     extent; only then does the permuted coordinate stay in range. *)
  let compatible p =
    dims.(0) = dims.(p.(0)) && dims.(1) = dims.(p.(1)) && dims.(2) = dims.(p.(2))
  in
  let perm_of p mask =
    Array.init (Mesh.tile_count mesh) (fun tile ->
        let x, y, z = Mesh.coord3_of_tile mesh tile in
        let c = [| x; y; z |] in
        let c =
          Array.mapi
            (fun i v -> if mask land (1 lsl i) <> 0 then dims.(i) - 1 - v else v)
            c
        in
        let o = Array.make 3 0 in
        Array.iteri (fun i v -> o.(p.(i)) <- v) c;
        Mesh.tile_of_coord3 mesh ~x:o.(0) ~y:o.(1) ~z:o.(2))
  in
  let maps =
    List.concat_map
      (fun p ->
        if compatible p then List.init 8 (fun mask -> perm_of p mask) else [])
      axis_perms
  in
  (* Degenerate shapes (1xN, layers = 1, 1x1x1) collapse some maps onto
     each other; keep the first occurrence so the identity stays in
     front. *)
  List.fold_left
    (fun acc p ->
      if List.exists (fun q -> q = p) acc then acc else acc @ [ p ])
    [] maps

let is_permutation tiles p =
  Array.length p = tiles
  && begin
       let seen = Array.make tiles false in
       Array.for_all
         (fun v ->
           v >= 0 && v < tiles
           && if seen.(v) then false else (seen.(v) <- true; true))
         p
     end

let is_automorphism mesh p =
  let tiles = Mesh.tile_count mesh in
  is_permutation tiles p
  && begin
       let ok = ref true in
       for tile = 0 to tiles - 1 do
         let image_neighbors =
           List.sort compare (List.map (fun n -> p.(n)) (Mesh.neighbors mesh tile))
         in
         if image_neighbors <> List.sort compare (Mesh.neighbors mesh p.(tile)) then
           ok := false
       done;
       !ok
     end

let for_all_pairs tiles f =
  let rec loop s d =
    if s = tiles then true
    else if d = tiles then loop (s + 1) 0
    else f s d && loop s (d + 1)
  in
  loop 0 0

(* Hop-exactness must track vertical links separately: TSV links carry
   their own energy coefficients, so CWM cost per pair is a function of
   [(routers, tsv)], not of the router count alone.  A rigid motion that
   trades a vertical hop for a horizontal one preserves hop counts but
   not cost.  On a planar mesh every [tsv] is 0 and this collapses to
   the historical router-count check. *)
let hop_exact crg p =
  let tiles = Crg.tile_count crg in
  let routers = Crg.router_counts crg and tsv = Crg.tsv_counts crg in
  is_permutation tiles p
  && for_all_pairs tiles (fun s d ->
         let i = (s * tiles) + d and j = (p.(s) * tiles) + p.(d) in
         routers.(i) = routers.(j) && tsv.(i) = tsv.(j))

let path_exact crg p =
  let tiles = Crg.tile_count crg in
  is_permutation tiles p
  && for_all_pairs tiles (fun s d ->
         let original = (Crg.path crg ~src:s ~dst:d).Crg.routers in
         let image = (Crg.path crg ~src:p.(s) ~dst:p.(d)).Crg.routers in
         Array.length original = Array.length image
         && begin
              let ok = ref true in
              for i = 0 to Array.length original - 1 do
                if image.(i) <> p.(original.(i)) then ok := false
              done;
              !ok
            end)

let check_of_level = function
  | Hops -> hop_exact
  | Paths -> path_exact

let of_crg ~level crg =
  let mesh = Crg.mesh crg in
  let check = check_of_level level in
  let group = List.filter (fun p -> check crg p) (candidates mesh) in
  { mesh; group = Array.of_list group }

let of_crgs ~level crgs =
  match crgs with
  | [] -> invalid_arg "Symmetry.of_crgs: need at least one CRG"
  | first :: rest ->
    let mesh = Crg.mesh first in
    List.iter
      (fun crg ->
        if Crg.mesh crg <> mesh then
          invalid_arg "Symmetry.of_crgs: CRGs span different meshes")
      rest;
    let check = check_of_level level in
    let group =
      List.filter (fun p -> List.for_all (fun crg -> check crg p) crgs)
        (candidates mesh)
    in
    { mesh; group = Array.of_list group }

let identity_only mesh =
  { mesh; group = [| Array.init (Mesh.tile_count mesh) Fun.id |] }

let mesh t = t.mesh

let order t = Array.length t.group

let perms t = Array.map Array.copy t.group

let compose a b = Array.init (Array.length b) (fun x -> a.(b.(x)))

let invert p =
  let inv = Array.make (Array.length p) 0 in
  Array.iteri (fun x y -> inv.(y) <- x) p;
  inv

let apply p placement = Array.map (fun tile -> p.(tile)) placement

(* Lexicographic comparison of [g . src] against the current best in
   [dst], decided at the first differing core. *)
let relabelling_compares_below g src dst =
  let n = Array.length src in
  let rec cmp i =
    if i = n then false
    else
      let a = g.(src.(i)) and b = dst.(i) in
      if a < b then true else if a > b then false else cmp (i + 1)
  in
  cmp 0

let canonicalize_into t ~src ~dst =
  if src == dst then invalid_arg "Symmetry.canonicalize_into: src and dst alias";
  if Array.length src <> Array.length dst then
    invalid_arg "Symmetry.canonicalize_into: length mismatch";
  Array.blit src 0 dst 0 (Array.length src);
  for gi = 1 to Array.length t.group - 1 do
    let g = t.group.(gi) in
    if relabelling_compares_below g src dst then
      for i = 0 to Array.length src - 1 do
        dst.(i) <- g.(src.(i))
      done
  done

let canonicalize t placement =
  let dst = Array.make (Array.length placement) 0 in
  canonicalize_into t ~src:placement ~dst;
  dst

let is_canonical t placement =
  let n = Array.length placement in
  let canonical = ref true in
  let gi = ref 1 in
  while !canonical && !gi < Array.length t.group do
    let g = t.group.(!gi) in
    let rec cmp i =
      if i = n then false
      else
        let a = g.(placement.(i)) and b = placement.(i) in
        if a < b then true else if a > b then false else cmp (i + 1)
    in
    if cmp 0 then canonical := false;
    incr gi
  done;
  !canonical
