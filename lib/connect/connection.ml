open Mcs_cdfg

type mode = Unidir | Bidir

type bus = {
  outw : int array; (* indexed by partition 0..N; in Bidir aliases inw *)
  inw : int array;
}

type t = {
  mode : mode;
  n_partitions : int;
  mutable buses : bus array;
  mutable nb : int;
  used : int array;
      (* pins committed per partition: the sum of its port widths, kept
         current by [set_port], the only writer of port widths *)
}

let create mode ~n_partitions =
  if n_partitions < 1 then invalid_arg "Connection.create";
  {
    mode;
    n_partitions;
    buses = [||];
    nb = 0;
    used = Array.make (n_partitions + 1) 0;
  }

(* In Bidir mode [outw] and [inw] alias, so one write changes one port. *)
let set_port t ports p w =
  t.used.(p) <- t.used.(p) + w - ports.(p);
  ports.(p) <- w

let mode t = t.mode
let n_partitions t = t.n_partitions
let n_buses t = t.nb

let fresh_bus t =
  let outw = Array.make (t.n_partitions + 1) 0 in
  match t.mode with
  | Unidir -> { outw; inw = Array.make (t.n_partitions + 1) 0 }
  | Bidir -> { outw; inw = outw }

let new_bus t =
  if t.nb = Array.length t.buses then begin
    let cap = max 8 (2 * t.nb) in
    let buses = Array.make cap (fresh_bus t) in
    Array.blit t.buses 0 buses 0 t.nb;
    for i = t.nb to cap - 1 do
      buses.(i) <- fresh_bus t
    done;
    t.buses <- buses
  end;
  t.buses.(t.nb) <- fresh_bus t;
  t.nb <- t.nb + 1;
  t.nb - 1

let get t h =
  if h < 0 || h >= t.nb then invalid_arg "Connection: bad bus id";
  t.buses.(h)

let drop_last_bus t =
  if t.nb = 0 then invalid_arg "Connection.drop_last_bus: no bus";
  let b = t.buses.(t.nb - 1) in
  if
    Array.exists (fun w -> w <> 0) b.outw || Array.exists (fun w -> w <> 0) b.inw
  then invalid_arg "Connection.drop_last_bus: bus still wired";
  t.nb <- t.nb - 1

let check_part t p =
  if p < 0 || p > t.n_partitions then invalid_arg "Connection: bad partition"

let out_width t ~bus ~partition =
  check_part t partition;
  (get t bus).outw.(partition)

let in_width t ~bus ~partition =
  check_part t partition;
  (get t bus).inw.(partition)

let widen_for t ~bus ~src ~dst ~width =
  check_part t src;
  check_part t dst;
  let b = get t bus in
  set_port t b.outw src (max b.outw.(src) width);
  set_port t b.inw dst (max b.inw.(dst) width)

let widen_port t ~bus ~partition ~dir width =
  check_part t partition;
  let b = get t bus in
  match dir with
  | `Out -> set_port t b.outw partition (max b.outw.(partition) width)
  | `In -> set_port t b.inw partition (max b.inw.(partition) width)

let shrink t ~bus ~src ~dst ~out_w ~in_w =
  let b = get t bus in
  (* In Bidir mode outw and inw alias; restore output side last so a saved
     pair taken with [out_width]/[in_width] round-trips. *)
  set_port t b.inw dst in_w;
  set_port t b.outw src out_w

let capable t cdfg ~bus op =
  let b = get t bus in
  let src = Cdfg.io_src cdfg op
  and dst = Cdfg.io_dst cdfg op
  and w = Cdfg.io_width cdfg op in
  b.outw.(src) >= w && b.inw.(dst) >= w

let extra_pins_for t ~bus ~src ~dst ~width =
  let b = get t bus in
  match t.mode with
  | Unidir ->
      (max 0 (width - b.outw.(src)), max 0 (width - b.inw.(dst)))
  | Bidir -> (max 0 (width - b.outw.(src)), max 0 (width - b.outw.(dst)))

let pins_used t p =
  check_part t p;
  t.used.(p)

let partitions_on_bus t ~bus =
  let b = get t bus in
  List.filter
    (fun p -> b.outw.(p) > 0 || b.inw.(p) > 0)
    (Mcs_util.Listx.range 0 (t.n_partitions + 1))

let topology t ~bus =
  let b = get t bus in
  let all = Mcs_util.Listx.range 0 (t.n_partitions + 1) in
  ( List.filter (fun p -> b.outw.(p) > 0) all,
    List.filter (fun p -> b.inw.(p) > 0) all )

let bus_width t ~bus =
  let b = get t bus in
  let m = ref 0 in
  Array.iter (fun w -> m := max !m w) b.outw;
  Array.iter (fun w -> m := max !m w) b.inw;
  !m

let copy t =
  {
    t with
    used = Array.copy t.used;
    buses =
      Array.init (Array.length t.buses) (fun i ->
          if i >= t.nb then t.buses.(i)
          else
            let b = t.buses.(i) in
            match t.mode with
            | Unidir -> { outw = Array.copy b.outw; inw = Array.copy b.inw }
            | Bidir ->
                let outw = Array.copy b.outw in
                { outw; inw = outw });
  }

let pp cdfg ppf t =
  ignore cdfg;
  Format.fprintf ppf "@[<v>";
  for h = 0 to t.nb - 1 do
    let b = t.buses.(h) in
    let ports side arr =
      List.filter_map
        (fun p -> if arr.(p) > 0 then Some (Printf.sprintf "P%d%s%d" p side arr.(p)) else None)
        (Mcs_util.Listx.range 0 (t.n_partitions + 1))
    in
    match t.mode with
    | Unidir ->
        Format.fprintf ppf "C%-2d (%2d lines): out[%s] in[%s]@," (h + 1)
          (bus_width t ~bus:h)
          (String.concat " " (ports ":" b.outw))
          (String.concat " " (ports ":" b.inw))
    | Bidir ->
        Format.fprintf ppf "C%-2d (%2d lines): io[%s]@," (h + 1)
          (bus_width t ~bus:h)
          (String.concat " " (ports ":" b.outw))
  done;
  Format.fprintf ppf "@]"
