open Mcs_cdfg
module M = Mcs_ilp.Model

module Ch4 = struct
  type vars = {
    y : (Types.op_id * int, M.var) Hashtbl.t;
    pins_of : M.solution -> (int * int) list;
  }

  let model cdfg cons ~rate ~mode ~max_buses =
    let m = M.create () in
    let n = Cdfg.n_partitions cdfg in
    let ios = Cdfg.io_ops cdfg in
    let buses = Mcs_util.Listx.range 0 max_buses in
    let parts = Mcs_util.Listx.range 0 (n + 1) in
    let y = Hashtbl.create 64 in
    List.iter
      (fun w ->
        List.iter
          (fun h ->
            Hashtbl.replace y (w, h)
              (M.binary m (Printf.sprintf "y_%s_%d" (Cdfg.name cdfg w) h)))
          buses)
      ios;
    let yv w h = Hashtbl.find y (w, h) in
    (* Port-width variables. *)
    let port = Hashtbl.create 64 in
    let port_var tag i h =
      match Hashtbl.find_opt port (tag, i, h) with
      | Some v -> v
      | None ->
          let v = M.int_var m ~lo:0 (Printf.sprintf "%s_%d_%d" tag i h) in
          Hashtbl.replace port (tag, i, h) v;
          v
    in
    (* 4.1: every operation on exactly one bus. *)
    List.iter
      (fun w ->
        M.add_eq m
          (M.sum (List.map (fun h -> M.v (yv w h)) buses))
          (M.const 1))
      ios;
    (* 4.2 / 4.3 data transfer; §4.3 for bidirectional ports. *)
    List.iter
      (fun w ->
        let bw = Cdfg.io_width cdfg w in
        let src = Cdfg.io_src cdfg w and dst = Cdfg.io_dst cdfg w in
        List.iter
          (fun h ->
            match mode with
            | Connection.Unidir ->
                M.add_ge m (M.v (port_var "p" src h)) (M.term bw (yv w h));
                M.add_ge m (M.v (port_var "q" dst h)) (M.term bw (yv w h))
            | Connection.Bidir ->
                M.add_ge m (M.v (port_var "r" src h)) (M.term bw (yv w h));
                M.add_ge m (M.v (port_var "r" dst h)) (M.term bw (yv w h)))
          buses)
      ios;
    (* 4.4 resource constraints. *)
    List.iter
      (fun i ->
        let terms =
          List.concat_map
            (fun h ->
              match mode with
              | Connection.Unidir ->
                  [ M.v (port_var "p" i h); M.v (port_var "q" i h) ]
              | Connection.Bidir -> [ M.v (port_var "r" i h) ])
            buses
        in
        M.add_le m (M.sum terms) (M.const (Constraints.pins cons i)))
      parts;
    (* 4.5 capacity: at most [rate] distinct values per bus. *)
    let values =
      Mcs_util.Listx.uniq String.equal (List.map (Cdfg.io_value cdfg) ios)
    in
    let z = Hashtbl.create 64 in
    List.iter
      (fun v ->
        let ops = Cdfg.io_ops_of_value cdfg v in
        List.iter
          (fun h ->
            let zv = M.binary m (Printf.sprintf "z_%s_%d" v h) in
            Hashtbl.replace z (v, h) zv;
            M.eq_max_bin m zv (List.map (fun w -> yv w h) ops))
          buses)
      values;
    List.iter
      (fun h ->
        M.add_le m
          (M.sum (List.map (fun v -> M.v (Hashtbl.find z (v, h))) values))
          (M.const rate))
      buses;
    (* Objective 4.6: maximize the number of buses actually used. *)
    let used =
      List.map
        (fun h ->
          let u = M.binary m (Printf.sprintf "used_%d" h) in
          M.eq_max_bin m u (List.map (fun w -> yv w h) ios);
          u)
        buses
    in
    M.set_objective m (M.sum (List.map M.v used));
    let pins_of sol =
      List.map
        (fun i ->
          ( i,
            Mcs_util.Listx.sum
              (fun h ->
                match mode with
                | Connection.Unidir ->
                    M.int_value sol (port_var "p" i h)
                    + M.int_value sol (port_var "q" i h)
                | Connection.Bidir -> M.int_value sol (port_var "r" i h))
              buses ))
        parts
    in
    (m, { y; pins_of })

  let solve ?budget ~arith cdfg cons ~rate ~mode ~max_buses =
    let m, vars = model cdfg cons ~rate ~mode ~max_buses in
    (* Bus cap left out of the key: a caller sweeping max_buses downward
       warm-starts each cap from the last one's basis (same variable
       names). *)
    let warm_key =
      Printf.sprintf "ch4:%s:%dp:%do"
        (match mode with
        | Connection.Unidir -> "unidir"
        | Connection.Bidir -> "bidir")
        (Cdfg.n_partitions cdfg)
        (List.length (Cdfg.io_ops cdfg))
    in
    match M.solve ?budget ~arith ~warm_key m with
    (* A budget-limited but integer-feasible solution is still a valid
       bus assignment — only the bus-count objective may be sub-optimal. *)
    | M.Optimal sol | M.Feasible sol ->
        let assignment =
          List.map
            (fun w ->
              let h =
                List.find
                  (fun h -> M.int_value sol (Hashtbl.find vars.y (w, h)) = 1)
                  (Mcs_util.Listx.range 0 max_buses)
              in
              (w, h))
            (Cdfg.io_ops cdfg)
        in
        `Sat (assignment, vars.pins_of sol)
    | M.Infeasible -> `Unsat
    | M.Unbounded -> `Unknown
    | M.Unknown -> `Unknown
    | M.Exhausted e -> `Exhausted e
end

module Ch6 = struct
  let model cdfg cons ~rate ~max_buses ~subs =
    if subs < 1 then invalid_arg "Ilp_gen.Ch6: subs must be >= 1";
    let m = M.create () in
    let n = Cdfg.n_partitions cdfg in
    let ios = Cdfg.io_ops cdfg in
    let big =
      Mcs_util.Listx.sum (fun w -> Cdfg.io_width cdfg w) ios + 1
    in
    let buses = Mcs_util.Listx.range 0 max_buses in
    let slots = Mcs_util.Listx.range 0 rate in
    let subsl = Mcs_util.Listx.range 0 subs in
    let parts = Mcs_util.Listx.range 0 (n + 1) in
    let x = Hashtbl.create 256 and zb = Hashtbl.create 256 in
    List.iter
      (fun w ->
        List.iter
          (fun h ->
            List.iter
              (fun l ->
                List.iter
                  (fun s ->
                    Hashtbl.replace x (w, h, l, s)
                      (M.binary m
                         (Printf.sprintf "x_%s_%d_%d_%d" (Cdfg.name cdfg w) h l s));
                    Hashtbl.replace zb (w, h, l, s)
                      (M.int_var m ~lo:0 ~hi:(Cdfg.io_width cdfg w)
                         (Printf.sprintf "z_%s_%d_%d_%d" (Cdfg.name cdfg w) h l s)))
                  subsl)
              slots)
          buses)
      ios;
    let xv w h l s = Hashtbl.find x (w, h, l, s) in
    let zv w h l s = Hashtbl.find zb (w, h, l, s) in
    let bw =
      List.concat_map
        (fun h ->
          List.map
            (fun s ->
              ((h, s), M.int_var m ~lo:0 (Printf.sprintf "bw_%d_%d" h s)))
            subsl)
        buses
    in
    let bwv h s = List.assoc (h, s) bw in
    let r =
      List.concat_map
        (fun i ->
          List.map
            (fun h -> ((i, h), M.int_var m ~lo:0 (Printf.sprintf "r_%d_%d" i h)))
            buses)
        parts
    in
    let rv i h = List.assoc (i, h) r in
    (* 6.1: exactly one communication slot per operation. *)
    List.iter
      (fun w ->
        let ms =
          List.concat_map
            (fun h ->
              List.map
                (fun l ->
                  let mv =
                    M.binary m
                      (Printf.sprintf "m_%s_%d_%d" (Cdfg.name cdfg w) h l)
                  in
                  M.eq_max_bin m mv (List.map (xv w h l) subsl);
                  mv)
                slots)
            buses
        in
        M.add_eq m (M.sum (List.map M.v ms)) (M.const 1))
      ios;
    (* 6.2: contiguity — at most one run of ones over the sub-buses. *)
    if subs > 1 then
      List.iter
        (fun w ->
          List.iter
            (fun h ->
              List.iter
                (fun l ->
                  let xors =
                    List.map
                      (fun s ->
                        let t =
                          M.binary m
                            (Printf.sprintf "xor_%s_%d_%d_%d"
                               (Cdfg.name cdfg w) h l s)
                        in
                        M.eq_xor_bin m t (xv w h l (s - 1)) (xv w h l s);
                        t)
                      (Mcs_util.Listx.range 1 subs)
                  in
                  M.add_le m
                    (M.sum
                       (M.v (xv w h l 0)
                       :: M.v (xv w h l (subs - 1))
                       :: List.map M.v xors))
                    (M.const 2))
                slots)
            buses)
        ios;
    (* 6.4: one value per sub-slot (same-value operations may share). *)
    let values =
      Mcs_util.Listx.uniq String.equal (List.map (Cdfg.io_value cdfg) ios)
    in
    List.iter
      (fun h ->
        List.iter
          (fun l ->
            List.iter
              (fun s ->
                let per_value =
                  List.map
                    (fun v ->
                      let ops = Cdfg.io_ops_of_value cdfg v in
                      match ops with
                      | [ w ] -> M.v (xv w h l s)
                      | _ ->
                          let mv =
                            M.binary m
                              (Printf.sprintf "mv_%s_%d_%d_%d" v h l s)
                          in
                          M.eq_max_bin m mv (List.map (fun w -> xv w h l s) ops);
                          M.v mv)
                    values
                in
                M.add_le m (M.sum per_value) (M.const 1))
              subsl)
          slots)
      buses;
    (* 6.5: same-value operations sharing any sub-slot use identical
       sub-slot sets. *)
    List.iter
      (fun v ->
        let ops = Cdfg.io_ops_of_value cdfg v in
        let rec pairs = function
          | [] -> []
          | a :: rest -> List.map (fun b' -> (a, b')) rest @ pairs rest
        in
        List.iter
          (fun (w, w') ->
            List.iter
              (fun h ->
                List.iter
                  (fun l ->
                    let ov =
                      M.int_var m ~lo:0 ~hi:2
                        (Printf.sprintf "ov_%s_%s_%d_%d" (Cdfg.name cdfg w)
                           (Cdfg.name cdfg w') h l)
                    in
                    List.iter
                      (fun s ->
                        M.add_ge m (M.v ov)
                          (M.add (M.v (xv w h l s)) (M.v (xv w' h l s))))
                      subsl;
                    let xors =
                      List.map
                        (fun s ->
                          let t =
                            M.binary m
                              (Printf.sprintf "ovx_%s_%s_%d_%d_%d"
                                 (Cdfg.name cdfg w) (Cdfg.name cdfg w') h l s)
                          in
                          M.eq_xor_bin m t (xv w h l s) (xv w' h l s);
                          t)
                        subsl
                    in
                    (* (ov >= 2) => sum of xors = 0, via (2 - ov) * M >= sum. *)
                    M.add_le m
                      (M.add
                         (M.sum (List.map M.v xors))
                         (M.term subs ov))
                      (M.const (2 * subs)))
                  slots)
              buses)
          (pairs ops))
      values;
    (* 6.6: bits flow only through claimed sub-slots. *)
    List.iter
      (fun w ->
        List.iter
          (fun h ->
            List.iter
              (fun l ->
                List.iter
                  (fun s ->
                    M.iff_positive m ~big_m:(Cdfg.io_width cdfg w) (xv w h l s)
                      (M.v (zv w h l s)))
                  subsl)
              slots)
          buses)
      ios;
    (* 6.7 sub-bus width; 6.8 full value transferred. *)
    List.iter
      (fun w ->
        List.iter
          (fun h ->
            List.iter
              (fun l ->
                List.iter
                  (fun s -> M.add_ge m (M.v (bwv h s)) (M.v (zv w h l s)))
                  subsl)
              slots)
          buses;
        M.add_eq m
          (M.sum
             (List.concat_map
                (fun h ->
                  List.concat_map
                    (fun l -> List.map (fun s -> M.v (zv w h l s)) subsl)
                    slots)
                buses))
          (M.const (Cdfg.io_width cdfg w)))
      ios;
    (* 6.9: a partition touching sub-bus s of bus h connects all earlier
       sub-buses too. *)
    List.iter
      (fun i ->
        let touches w = Cdfg.io_src cdfg w = i || Cdfg.io_dst cdfg w = i in
        let mine = List.filter touches ios in
        if mine <> [] then
          List.iter
            (fun h ->
              List.iter
                (fun s ->
                  let a =
                    M.int_var m ~lo:0 (Printf.sprintf "a_%d_%d_%d" i h s)
                  in
                  List.iter
                    (fun w ->
                      List.iter
                        (fun l -> M.add_ge m (M.v a) (M.v (zv w h l s)))
                        slots)
                    mine;
                  let g = M.binary m (Printf.sprintf "g_%d_%d_%d" i h s) in
                  M.iff_positive m ~big_m:big g (M.v a);
                  (* r_{i,h} >= sum_{t<s} bw_{h,t} + a  when g = 1 *)
                  M.implies_le m ~big_m:big g
                    (M.add
                       (M.sum
                          (List.map
                             (fun t -> M.v (bwv h t))
                             (Mcs_util.Listx.range 0 s)))
                       (M.v a))
                    (M.v (rv i h)))
                subsl)
            buses)
      parts;
    (* 6.10 resource constraints. *)
    List.iter
      (fun i ->
        M.add_le m
          (M.sum (List.map (fun h -> M.v (rv i h)) buses))
          (M.const (Constraints.pins cons i)))
      parts;
    m

  let feasible ?budget ~arith cdfg cons ~rate ~max_buses ~subs =
    let m = model cdfg cons ~rate ~max_buses ~subs in
    let warm_key =
      Printf.sprintf "ch6:%dp:%do:%ds" (Cdfg.n_partitions cdfg)
        (List.length (Cdfg.io_ops cdfg))
        subs
    in
    match M.solve ?budget ~method_:`Branch_bound ~arith ~warm_key m with
    | M.Optimal _ | M.Feasible _ -> Some true
    | M.Infeasible -> Some false
    | M.Unbounded -> Some true
    | M.Unknown | M.Exhausted _ -> None
end
