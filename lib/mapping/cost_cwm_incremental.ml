module Crg = Nocmap_noc.Crg
module Cwg = Nocmap_model.Cwg

type t = {
  eval : Cost_cwm.t;               (* energy-per-bit table of the pair classes *)
  tiles : int;
  routers : int array;             (* Crg.router_counts *)
  tsv : int array;                 (* Crg.tsv_counts *)
  current : int array;             (* placement, mutated in place *)
  occupant : int array;            (* tile -> core or -1 *)
  partners : (int * int * bool) list array;
      (* per core: (other core, bits, outgoing?) for each communication *)
  mutable total : float;
}

(* Energy change over every communication involving [core] between two
   position assignments, in a single pass over the incidence list: each
   term is evaluated at its before and after endpoints together, so a
   swap costs one traversal per moved core instead of two.  Terms whose
   router and TSV counts are both unchanged — in particular the terms
   between two swapped cores, whose routes keep their length and
   vertical extent — drop out exactly.  A router count of 0 marks an
   unreachable pair of a faulty CRG: its packets are dropped and the
   {!Cost_cwm.pair_ebit} table charges them nothing. *)
let core_delta t core ~before ~after =
  let acc = ref 0.0 in
  let add (other, bits, outgoing) =
    let src, dst = if outgoing then (core, other) else (other, core) in
    let pb = (before src * t.tiles) + before dst in
    let pa = (after src * t.tiles) + after dst in
    if t.routers.(pa) <> t.routers.(pb) || t.tsv.(pa) <> t.tsv.(pb) then begin
      let w = float_of_int bits in
      acc :=
        !acc +. (w *. Cost_cwm.pair_ebit t.eval pa) -. (w *. Cost_cwm.pair_ebit t.eval pb)
    end
  in
  List.iter add t.partners.(core);
  !acc

let create ~tech ~crg ~cwg ~placement =
  (match Placement.validate ~tiles:(Crg.tile_count crg) placement with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Cost_cwm_incremental.create: " ^ msg));
  let cores = Cwg.core_count cwg in
  if Array.length placement <> cores then
    invalid_arg "Cost_cwm_incremental.create: placement length differs from core count";
  let partners = Array.make cores [] in
  for i = 0 to Cwg.ncc cwg - 1 do
    let src = cwg.Cwg.src.(i) and dst = cwg.Cwg.dst.(i) and bits = cwg.Cwg.bits.(i) in
    partners.(src) <- (dst, bits, true) :: partners.(src);
    partners.(dst) <- (src, bits, false) :: partners.(dst)
  done;
  let occupant = Array.make (Crg.tile_count crg) (-1) in
  Array.iteri (fun core tile -> occupant.(tile) <- core) placement;
  let eval = Cost_cwm.create ~tech ~crg ~cwg in
  {
    eval;
    tiles = Crg.tile_count crg;
    routers = Crg.router_counts crg;
    tsv = Crg.tsv_counts crg;
    current = Array.copy placement;
    occupant;
    partners;
    total = Cost_cwm.evaluate eval placement;
  }

let cost t = t.total

let placement t = Array.copy t.current

(* The move swaps [core] with the occupant of [tile] (if any).  Only
   communications touching the two moved cores change.  Terms between
   two swapped cores are visited by both core passes, but a swap
   preserves the router and TSV counts between their tiles
   (dimension-ordered routes have symmetric lengths and vertical
   extents), so the unchanged-term filter drops them on both sides and
   the delta stays exact. *)
let move_delta t ~core ~tile =
  let cores = Array.length t.current in
  if core < 0 || core >= cores then invalid_arg "Cost_cwm_incremental: core out of range";
  if tile < 0 || tile >= Array.length t.occupant then
    invalid_arg "Cost_cwm_incremental: tile out of range";
  let from_tile = t.current.(core) in
  if tile = from_tile then 0.0
  else begin
    let other = if t.occupant.(tile) >= 0 then Some t.occupant.(tile) else None in
    let before c = t.current.(c) in
    let after c =
      if c = core then tile
      else
        match other with
        | Some o when c = o -> from_tile
        | Some _ | None -> t.current.(c)
    in
    let d = core_delta t core ~before ~after in
    match other with
    | None -> d
    | Some o -> d +. core_delta t o ~before ~after
  end

let swap_delta t ~core_a ~core_b =
  let cores = Array.length t.current in
  if core_a < 0 || core_a >= cores || core_b < 0 || core_b >= cores then
    invalid_arg "Cost_cwm_incremental: core out of range";
  if core_a = core_b then 0.0
  else move_delta t ~core:core_a ~tile:t.current.(core_b)

let apply_move t ~core ~tile =
  let delta = move_delta t ~core ~tile in
  let from_tile = t.current.(core) in
  if tile <> from_tile then begin
    let other = t.occupant.(tile) in
    if other >= 0 then begin
      t.current.(other) <- from_tile;
      t.occupant.(from_tile) <- other
    end
    else t.occupant.(from_tile) <- -1;
    t.current.(core) <- tile;
    t.occupant.(tile) <- core;
    t.total <- t.total +. delta
  end
