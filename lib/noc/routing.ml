type algorithm =
  | Xy
  | Yx
  | Torus_xy
  | Torus_yx

let algorithm_to_string = function
  | Xy -> "xy"
  | Yx -> "yx"
  | Torus_xy -> "torus-xy"
  | Torus_yx -> "torus-yx"

let algorithm_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "xy" | "xyz" -> Xy
  | "yx" | "yxz" -> Yx
  | "torus-xy" -> Torus_xy
  | "torus-yx" -> Torus_yx
  | other -> invalid_arg ("Routing.algorithm_of_string: unknown algorithm " ^ other)

let uses_wrap_links = function
  | Xy | Yx -> false
  | Torus_xy | Torus_yx -> true

(* Mesh step toward the target. *)
let step v target = if v < target then v + 1 else v - 1

(* Torus step: one move along the shorter way around a dimension of
   size [extent]; forward on ties. *)
let torus_step v target extent =
  let forward = (target - v + extent) mod extent in
  let backward = (v - target + extent) mod extent in
  if forward <= backward then (v + 1) mod extent else (v - 1 + extent) mod extent

let check_torus_dims mesh algo =
  if uses_wrap_links algo && (mesh.Mesh.cols < 3 || mesh.Mesh.rows < 3) then
    invalid_arg "Routing.router_path: torus routing requires both dimensions >= 3"

(* Steps [torus_step] or [step] take from [v] to [target]: the shorter
   way round on a torus, the plain offset otherwise. *)
let axis_hops ~torus v target extent =
  if torus then min ((target - v + extent) mod extent) ((v - target + extent) mod extent)
  else abs (target - v)

(* One dimension-ordered walk along x, y or z, written into [path] from
   index [i]; each returns the next free index.  The vertical dimension
   never wraps — TSVs are physical vias — so the z walk is a plain mesh
   walk even for the torus algorithms. *)
let rec fill_x ~torus mesh path i x y z xt =
  if x = xt then i
  else begin
    let x' = if torus then torus_step x xt mesh.Mesh.cols else step x xt in
    path.(i) <- Mesh.tile_of_coord3 mesh ~x:x' ~y ~z;
    fill_x ~torus mesh path (i + 1) x' y z xt
  end

let rec fill_y ~torus mesh path i x y z yt =
  if y = yt then i
  else begin
    let y' = if torus then torus_step y yt mesh.Mesh.rows else step y yt in
    path.(i) <- Mesh.tile_of_coord3 mesh ~x ~y:y' ~z;
    fill_y ~torus mesh path (i + 1) x y' z yt
  end

let rec fill_z mesh path i x y z zt =
  if z = zt then i
  else begin
    let z' = step z zt in
    path.(i) <- Mesh.tile_of_coord3 mesh ~x ~y ~z:z';
    fill_z mesh path (i + 1) x y z' zt
  end

(* The route is written straight into an array sized from the per-axis
   hop counts, so building every pair's route allocates little beyond
   the result. *)
let router_array mesh algo ~src ~dst =
  check_torus_dims mesh algo;
  let xs, ys, zs = Mesh.coord3_of_tile mesh src in
  let xd, yd, zd = Mesh.coord3_of_tile mesh dst in
  let torus = uses_wrap_links algo in
  let hops =
    axis_hops ~torus xs xd mesh.Mesh.cols
    + axis_hops ~torus ys yd mesh.Mesh.rows
    + abs (zd - zs)
  in
  let path = Array.make (hops + 1) src in
  let i =
    match algo with
    | Xy | Torus_xy ->
      let i = fill_x ~torus mesh path 1 xs ys zs xd in
      fill_y ~torus mesh path i xd ys zs yd
    | Yx | Torus_yx ->
      let i = fill_y ~torus mesh path 1 xs ys zs yd in
      fill_x ~torus mesh path i xs yd zs xd
  in
  ignore (fill_z mesh path i xd yd zs zd : int);
  path

let router_path mesh algo ~src ~dst = Array.to_list (router_array mesh algo ~src ~dst)

let hop_count mesh algo ~src ~dst = Array.length (router_array mesh algo ~src ~dst)

let rec links_of_path = function
  | [] | [ _ ] -> []
  | a :: (b :: _ as rest) -> (a, b) :: links_of_path rest
