type path = {
  routers : int array;
  links : int array;
}

type reachability =
  | Reachable of int
  | Unreachable

type t = {
  mesh : Mesh.t;
  routing : Routing.algorithm;
  faults : Fault.t option;
  paths : path array; (* index: src * n + dst *)
  detours : int array; (* extra links vs the fault-free route; -1 = unreachable *)
  router_counts : int array; (* routers per pair; 0 = unreachable *)
  tsv_counts : int array; (* vertical links per pair; all 0 on a planar mesh *)
  max_routers : int;
  max_tsv : int;
}

(* [link_of.(a * tiles + b)] is the link from tile [a] to an adjacent
   tile [b] (-1 when they are not adjacent): {!Link.id} for every hop
   of every route as one array read, without its per-call coordinate
   decoding. *)
let link_table mesh ~wrap =
  let tiles = Mesh.tile_count mesh in
  let link_of = Array.make (tiles * tiles) (-1) in
  List.iter
    (fun lid ->
      let a, b = Link.endpoints ~wrap mesh lid in
      link_of.((a * tiles) + b) <- lid)
    (Link.all ~wrap mesh);
  link_of

let build_path mesh routing ~link_of ~src ~dst =
  let tiles = Mesh.tile_count mesh in
  let routers = Routing.router_array mesh routing ~src ~dst in
  let links = Array.make (Array.length routers - 1) 0 in
  for i = 0 to Array.length links - 1 do
    let lid = link_of.((routers.(i) * tiles) + routers.(i + 1)) in
    if lid < 0 then invalid_arg "Crg: route steps between non-adjacent tiles";
    links.(i) <- lid
  done;
  { routers; links }

let unreachable_path = { routers = [||]; links = [||] }

(* Surviving adjacency: for each alive router, the outgoing (link, dst)
   pairs whose link and far endpoint survive, in ascending link-id order
   so BFS tie-breaks deterministically. *)
let surviving_adjacency mesh ~wrap faults =
  let n = Mesh.tile_count mesh in
  let adj = Array.make n [] in
  List.iter
    (fun lid ->
      if not (Fault.link_down faults lid) then begin
        let src, dst = Link.endpoints ~wrap mesh lid in
        adj.(src) <- (lid, dst) :: adj.(src)
      end)
    (List.rev (Link.all ~wrap mesh));
  adj

(* Single-source BFS on the surviving topology.  Returns the parent
   structure: [prev.(v)] is [(link, predecessor)] on a shortest path
   from [src], or [(-1, -1)] when unreached. *)
let bfs ~adj ~n src =
  let prev = Array.make n (-1, -1) in
  let seen = Array.make n false in
  let queue = Queue.create () in
  seen.(src) <- true;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let v = Queue.take queue in
    List.iter
      (fun (lid, w) ->
        if not seen.(w) then begin
          seen.(w) <- true;
          prev.(w) <- (lid, v);
          Queue.add w queue
        end)
      adj.(v)
  done;
  (seen, prev)

(* Walks the BFS parents back from [dst] twice: once to size the
   arrays, once to fill them from the far end. *)
let rebuild_path ~prev ~src dst =
  let rec hops v k = if v = src then k else hops (snd prev.(v)) (k + 1) in
  let k = hops dst 0 in
  let routers = Array.make (k + 1) src and links = Array.make k 0 in
  let v = ref dst in
  for i = k downto 1 do
    let lid, p = prev.(!v) in
    routers.(i) <- !v;
    links.(i - 1) <- lid;
    v := p
  done;
  { routers; links }

(* The dimension-ordered route survives iff every router and link on it
   does; keeping it in that case makes an empty fault set bit-identical
   to the fault-free CRG and minimizes churn under sparse faults. *)
let route_intact faults p =
  Array.for_all (fun r -> not (Fault.router_down faults r)) p.routers
  && Array.for_all (fun l -> not (Fault.link_down faults l)) p.links

let vertical_links mesh p =
  if mesh.Mesh.layers = 1 then 0
  else
    Array.fold_left
      (fun acc lid -> if Link.is_vertical mesh lid then acc + 1 else acc)
      0 p.links

let create ?(routing = Routing.Xy) ?faults mesh =
  let n = Mesh.tile_count mesh in
  let wrap = Routing.uses_wrap_links routing in
  let effective =
    match faults with
    | Some f when not (Fault.is_empty f) -> Some f
    | Some _ | None -> None
  in
  (match effective with
  | None -> ()
  | Some f ->
    let fm = Fault.mesh f in
    if
      fm.Mesh.cols <> mesh.Mesh.cols
      || fm.Mesh.rows <> mesh.Mesh.rows
      || fm.Mesh.layers <> mesh.Mesh.layers
    then invalid_arg "Crg.create: fault scenario built for a different mesh";
    List.iter
      (fun lid ->
        if not (Link.exists ~wrap mesh lid) then
          invalid_arg
            (Printf.sprintf
               "Crg.create: failed link slot %d is not physical under %s routing"
               lid
               (Routing.algorithm_to_string routing)))
      (Fault.failed_links f));
  let paths = Array.make (n * n) unreachable_path in
  let detours = Array.make (n * n) (-1) in
  (* Router and vertical-link counts per pair are filled alongside the
     paths, so evaluators split the paper's Eq. (2) into planar and TSV
     terms with two array reads per communication. *)
  let link_of = link_table mesh ~wrap in
  let router_counts = Array.make (n * n) 0 in
  let tsv_counts = Array.make (n * n) 0 in
  let set i p detour =
    paths.(i) <- p;
    detours.(i) <- detour;
    router_counts.(i) <- Array.length p.routers;
    tsv_counts.(i) <- vertical_links mesh p
  in
  (match effective with
  | None ->
    for src = 0 to n - 1 do
      for dst = 0 to n - 1 do
        set ((src * n) + dst) (build_path mesh routing ~link_of ~src ~dst) 0
      done
    done
  | Some f ->
    let adj = surviving_adjacency mesh ~wrap f in
    for src = 0 to n - 1 do
      let src_alive = not (Fault.router_down f src) in
      let reroute = lazy (bfs ~adj ~n src) in
      for dst = 0 to n - 1 do
        let i = (src * n) + dst in
        if src = dst then begin
          if src_alive then set i { routers = [| src |]; links = [||] } 0
        end
        else if src_alive && not (Fault.router_down f dst) then begin
          let direct = build_path mesh routing ~link_of ~src ~dst in
          if route_intact f direct then set i direct 0
          else begin
            let seen, prev = Lazy.force reroute in
            if seen.(dst) then begin
              let p = rebuild_path ~prev ~src dst in
              set i p (Array.length p.links - Array.length direct.links)
            end
          end
        end
      done
    done);
  {
    mesh;
    routing;
    faults;
    paths;
    detours;
    router_counts;
    tsv_counts;
    max_routers = Array.fold_left max 0 router_counts;
    max_tsv = Array.fold_left max 0 tsv_counts;
  }

let mesh t = t.mesh

let routing t = t.routing

let faults t = t.faults

let tile_count t = Mesh.tile_count t.mesh

let check_pair t ~src ~dst =
  let n = tile_count t in
  if src < 0 || src >= n then invalid_arg "Crg.path: tile out of range"
  else if dst < 0 || dst >= n then invalid_arg "Crg.path: tile out of range"

let path t ~src ~dst =
  check_pair t ~src ~dst;
  t.paths.((src * tile_count t) + dst)

let classify t ~src ~dst =
  check_pair t ~src ~dst;
  match t.detours.((src * tile_count t) + dst) with
  | -1 -> Unreachable
  | d -> Reachable d

let reachable t ~src ~dst =
  match classify t ~src ~dst with
  | Reachable _ -> true
  | Unreachable -> false

let unreachable_pairs t =
  let n = tile_count t in
  let acc = ref [] in
  for src = n - 1 downto 0 do
    for dst = n - 1 downto 0 do
      if t.detours.((src * n) + dst) = -1 then acc := (src, dst) :: !acc
    done
  done;
  !acc

let total_detour_links t =
  Array.fold_left (fun acc d -> if d > 0 then acc + d else acc) 0 t.detours

let max_detour_links t = Array.fold_left max 0 t.detours

let router_count_on_path t ~src ~dst =
  check_pair t ~src ~dst;
  t.router_counts.((src * tile_count t) + dst)

let tsv_links_on_path t ~src ~dst =
  check_pair t ~src ~dst;
  t.tsv_counts.((src * tile_count t) + dst)

let router_counts t = t.router_counts

let tsv_counts t = t.tsv_counts

let max_router_count t = t.max_routers

let max_tsv_count t = t.max_tsv

let to_digraph t =
  let wrap = Routing.uses_wrap_links t.routing in
  let n = tile_count t in
  let g = Nocmap_graph.Digraph.create ~n in
  let keep lid =
    match t.faults with
    | None -> true
    | Some f -> not (Fault.link_down f lid)
  in
  let add lid =
    let src, dst = Link.endpoints ~wrap t.mesh lid in
    Nocmap_graph.Digraph.add_edge g ~src ~dst ~label:0
  in
  List.iter (fun lid -> if keep lid then add lid) (Link.all ~wrap t.mesh);
  g
