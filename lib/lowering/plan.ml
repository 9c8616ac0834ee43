module Md_hom = Mdh_core.Md_hom
module Combine = Mdh_combine.Combine
module Device = Mdh_machine.Device
module Metrics = Mdh_obs.Metrics
module Trace = Mdh_obs.Trace
module Crc32 = Mdh_support.Crc32

type level =
  | Distribute of {
      dims : int list;
      extents : int list;
      over : string;
      units : int;
      points : int;
    }
  | Tree_reduce of { dim : int; op : string; items : int; extent : int }
  | Tile of { dim : int; tile : int; extent : int }
  | Seq of { dim : int; extent : int }
  | Accumulate of { dim : int; op : string; extent : int }
  | Scan of { dim : int; op : string; extent : int }

type t = {
  levels : level list;
  point_flops : int;
  tile_sizes : int array;
  parallel_dims : int list;
  used_layers : int list;
  usable_units : int;
  par_iters : int;
  device_name : string;
  hom_name : string;
}

type role = Role_distribute | Role_tree | Role_seq | Role_accumulate | Role_scan

let m_builds = Metrics.counter "lowering.plan.builds"

(* The level structure shared by [build] and [sequential]: [par_cc] and
   [tree_dim] are empty/None for the sequential plan. *)
let levels_of (md : Md_hom.t) ~par_cc ~tree_dim ~layer_names ~units ~tile_sizes =
  let rank = Md_hom.rank md in
  let distribute =
    if par_cc = [] then []
    else
      [ Distribute
          { dims = par_cc;
            extents = List.map (fun d -> md.sizes.(d)) par_cc;
            over = layer_names;
            units;
            points = List.fold_left (fun acc d -> acc * md.sizes.(d)) 1 par_cc } ]
  in
  let tree =
    match tree_dim with
    | Some d ->
      [ Tree_reduce
          { dim = d; op = Combine.name md.combine_ops.(d);
            items = min 256 md.sizes.(d); extent = md.sizes.(d) } ]
    | None -> []
  in
  let sequential =
    List.concat_map
      (fun d ->
        if List.mem d par_cc || Some d = tree_dim then []
        else
          let extent = md.sizes.(d) in
          let tile = tile_sizes.(d) in
          match md.combine_ops.(d) with
          | Combine.Cc ->
            if tile < extent then
              [ Tile { dim = d; tile; extent }; Seq { dim = d; extent = tile } ]
            else [ Seq { dim = d; extent } ]
          | Combine.Pw fn ->
            [ Accumulate { dim = d; op = "pw(" ^ fn.Combine.fn_name ^ ")"; extent } ]
          | Combine.Ps fn ->
            [ Scan { dim = d; op = "ps(" ^ fn.Combine.fn_name ^ ")"; extent } ])
      (List.init rank Fun.id)
  in
  distribute @ tree @ sequential

let build (md : Md_hom.t) (dev : Device.t) sched =
  Trace.with_span ~cat:"lowering" "plan.build"
    ~args:[ ("hom", md.Md_hom.hom_name); ("device", dev.Device.device_name) ]
  @@ fun () ->
  match Schedule.legal md dev sched with
  | Error _ as e -> e
  | Ok () ->
    Metrics.incr m_builds;
    let sched = Schedule.clamp md sched in
    let rank = Md_hom.rank md in
    let parallel d = List.mem d sched.Schedule.parallel_dims in
    let par_cc =
      List.filter
        (fun d -> parallel d && not (Combine.is_reduction md.combine_ops.(d)))
        (List.init rank Fun.id)
    in
    let layer_names =
      match sched.Schedule.used_layers with
      | [] -> "host"
      | layers ->
        String.concat "+"
          (List.map (fun l -> dev.Device.layers.(l).Device.layer_name) layers)
    in
    let units =
      List.fold_left
        (fun acc l -> acc * dev.Device.layers.(l).Device.max_units)
        1 sched.Schedule.used_layers
    in
    let tree_dim =
      List.find_opt
        (fun d ->
          parallel d
          && match md.combine_ops.(d) with Combine.Pw _ -> true | _ -> false)
        (List.init rank Fun.id)
    in
    Ok
      { levels =
          levels_of md ~par_cc ~tree_dim ~layer_names ~units
            ~tile_sizes:sched.Schedule.tile_sizes;
        point_flops = Md_hom.flops_per_point md;
        tile_sizes = Array.copy sched.Schedule.tile_sizes;
        parallel_dims = sched.Schedule.parallel_dims;
        used_layers = sched.Schedule.used_layers;
        usable_units = units;
        par_iters = Schedule.parallel_iterations md sched;
        device_name = dev.Device.device_name;
        hom_name = md.Md_hom.hom_name }

let sequential (md : Md_hom.t) =
  { levels =
      levels_of md ~par_cc:[] ~tree_dim:None ~layer_names:"host" ~units:1
        ~tile_sizes:(Array.copy md.Md_hom.sizes);
    point_flops = Md_hom.flops_per_point md;
    tile_sizes = Array.copy md.Md_hom.sizes;
    parallel_dims = [];
    used_layers = [];
    usable_units = 1;
    par_iters = 1;
    device_name = "none";
    hom_name = md.Md_hom.hom_name }

let role t d =
  let owns = function
    | Distribute { dims; _ } when List.mem d dims -> Some Role_distribute
    | Tree_reduce { dim; _ } when dim = d -> Some Role_tree
    | Tile { dim; _ } | Seq { dim; _ } when dim = d -> Some Role_seq
    | Accumulate { dim; _ } when dim = d -> Some Role_accumulate
    | Scan { dim; _ } when dim = d -> Some Role_scan
    | _ -> None
  in
  match List.find_map owns t.levels with
  | Some r -> r
  | None -> Role_seq

let distributed t =
  List.concat_map
    (function
      | Distribute { dims; extents; _ } -> List.combine dims extents
      | _ -> [])
    t.levels

let tree t =
  List.find_map
    (function
      | Tree_reduce { dim; extent; items; _ } -> Some (dim, extent, items)
      | _ -> None)
    t.levels

let pp_level ppf level =
  match level with
  | Distribute { dims; over; units; points; _ } ->
    Format.fprintf ppf "distribute dims [%s] (%d points) over %s (%d units)"
      (String.concat "," (List.map string_of_int dims))
      points over units
  | Tree_reduce { dim; op; items; _ } ->
    Format.fprintf ppf "tree-reduce dim %d with %s (%d cooperating items)" dim op items
  | Tile { dim; tile; extent } ->
    Format.fprintf ppf "tile dim %d: %d-element cache blocks of %d" dim tile extent
  | Seq { dim; extent } -> Format.fprintf ppf "for dim %d in 0..%d" dim extent
  | Accumulate { dim; op; extent } ->
    Format.fprintf ppf "accumulate dim %d with %s over %d" dim op extent
  | Scan { dim; op; extent } ->
    Format.fprintf ppf "scan dim %d with %s over %d" dim op extent

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i level ->
      Format.fprintf ppf "%s%a@," (String.make (2 * i) ' ') pp_level level)
    t.levels;
  Format.fprintf ppf "%spoint: scalar function (%d ops)@]"
    (String.make (2 * List.length t.levels) ' ')
    t.point_flops

let parallelism t =
  if t.par_iters = 0 || t.usable_units = 1 then 1
  else
    let chunks = (t.par_iters + t.usable_units - 1) / t.usable_units in
    max 1 (t.par_iters / chunks)

let depth t = List.length t.levels + 1

let digest t =
  let b = Stdlib.Buffer.create 256 in
  Stdlib.Buffer.add_string b t.hom_name;
  Stdlib.Buffer.add_char b '\n';
  Stdlib.Buffer.add_string b t.device_name;
  Stdlib.Buffer.add_char b '\n';
  Stdlib.Buffer.add_string b (Format.asprintf "%a" pp t);
  Stdlib.Buffer.add_char b '\n';
  Array.iter (fun s -> Stdlib.Buffer.add_string b (string_of_int s); Stdlib.Buffer.add_char b 'x') t.tile_sizes;
  Stdlib.Buffer.add_char b '\n';
  List.iter (fun d -> Stdlib.Buffer.add_string b (string_of_int d); Stdlib.Buffer.add_char b ',') t.parallel_dims;
  Stdlib.Buffer.add_char b '\n';
  List.iter (fun l -> Stdlib.Buffer.add_string b (string_of_int l); Stdlib.Buffer.add_char b ',') t.used_layers;
  Stdlib.Buffer.add_char b '\n';
  Stdlib.Buffer.add_string b (string_of_int t.usable_units);
  Stdlib.Buffer.add_char b ':';
  Stdlib.Buffer.add_string b (string_of_int t.par_iters);
  Stdlib.Buffer.add_char b ':';
  Stdlib.Buffer.add_string b (string_of_int t.point_flops);
  Crc32.to_hex (Crc32.string (Stdlib.Buffer.contents b))
