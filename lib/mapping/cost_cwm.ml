module Crg = Nocmap_noc.Crg
module Link = Nocmap_noc.Link
module Mesh = Nocmap_noc.Mesh
module Cwg = Nocmap_model.Cwg
module Equations = Nocmap_energy.Equations

type t = {
  crg : Crg.t;
  cwg : Cwg.t;
  tiles : int;
  tsv_stride : int;
  ebit : float array;
      (* [ebit.(routers * tsv_stride + tsv)] is [Equations.ebit_path] of
         that (routers, tsv) class; the [routers = 0] row (unreachable
         pairs of a faulty CRG, whose packets are dropped) stays 0. *)
}

let create ~tech ~crg ~cwg =
  let max_routers = Crg.max_router_count crg in
  let tsv_stride = Crg.max_tsv_count crg + 1 in
  let ebit = Array.make ((max_routers + 1) * tsv_stride) 0.0 in
  for routers = 1 to max_routers do
    for tsv = 0 to min (routers - 1) (tsv_stride - 1) do
      ebit.((routers * tsv_stride) + tsv) <- Equations.ebit_path ~tsv tech ~routers
    done
  done;
  { crg; cwg; tiles = Crg.tile_count crg; tsv_stride; ebit }

let pair_ebit t pair =
  t.ebit.(((Crg.router_counts t.crg).(pair) * t.tsv_stride)
          + (Crg.tsv_counts t.crg).(pair))

let check ~crg placement =
  match Placement.validate ~tiles:(Crg.tile_count crg) placement with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Cost_cwm: " ^ msg)

(* One multiply-add per communication, in (src, dst) order: the same
   [float bits *. ebit] products summed in the same order as folding
   {!Equations.communication_energy} over {!Cwg.communications}. *)
let evaluate t placement =
  check ~crg:t.crg placement;
  let routers = Crg.router_counts t.crg and tsv = Crg.tsv_counts t.crg in
  let src = t.cwg.Cwg.src and dst = t.cwg.Cwg.dst and bits = t.cwg.Cwg.bits in
  let acc = ref 0.0 in
  for i = 0 to Array.length bits - 1 do
    let pair = (placement.(src.(i)) * t.tiles) + placement.(dst.(i)) in
    (* Indexed inline rather than through [pair_ebit]: a float returned
       from a call is boxed, one allocation per communication. *)
    acc :=
      !acc
      +. (float_of_int bits.(i)
         *. t.ebit.((routers.(pair) * t.tsv_stride) + tsv.(pair)))
  done;
  !acc

let dynamic_energy ~tech ~crg ~cwg placement =
  evaluate (create ~tech ~crg ~cwg) placement

let cost_table ~tech ~crg ~cwg placement =
  check ~crg placement;
  let mesh = Crg.mesh crg in
  let routers = Array.make (Mesh.tile_count mesh) 0.0 in
  let links = Array.make (Link.slot_count mesh) 0.0 in
  let er = tech.Nocmap_energy.Technology.e_rbit in
  let el = tech.Nocmap_energy.Technology.e_lbit in
  let er_tsv = tech.Nocmap_energy.Technology.e_rbit_tsv in
  let el_tsv = tech.Nocmap_energy.Technology.e_lbit_tsv in
  (* Mirrors the per-path attribution of [Equations.ebit_path]: the
     router reached through a vertical link is charged at the TSV rate,
     so the table still sums to [dynamic_energy] on a stacked mesh. *)
  for i = 0 to Cwg.ncc cwg - 1 do
    let path =
      Crg.path crg ~src:placement.(cwg.Cwg.src.(i)) ~dst:placement.(cwg.Cwg.dst.(i))
    in
    let w = float_of_int cwg.Cwg.bits.(i) in
    let rs = path.Crg.routers and ls = path.Crg.links in
    if Array.length rs > 0 then
      routers.(rs.(0)) <- routers.(rs.(0)) +. (w *. er);
    Array.iteri
      (fun k lid ->
        let vertical = Link.is_vertical mesh lid in
        let dst_tile = rs.(k + 1) in
        routers.(dst_tile) <-
          routers.(dst_tile) +. (w *. if vertical then er_tsv else er);
        links.(lid) <- links.(lid) +. (w *. if vertical then el_tsv else el))
      ls
  done;
  (routers, links)

let bit_hops ~crg ~cwg placement =
  check ~crg placement;
  let tiles = Crg.tile_count crg and routers = Crg.router_counts crg in
  let acc = ref 0 in
  for i = 0 to Cwg.ncc cwg - 1 do
    let pair = (placement.(cwg.Cwg.src.(i)) * tiles) + placement.(cwg.Cwg.dst.(i)) in
    acc := !acc + (cwg.Cwg.bits.(i) * routers.(pair))
  done;
  !acc
