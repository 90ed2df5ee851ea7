open Mcs_cdfg
module Model = Mcs_ilp.Model

(* --- Definition 3.2 --- *)

let violations cdfg =
  let n = Cdfg.n_partitions cdfg in
  let parts = Mcs_util.Listx.range 1 (n + 1) in
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun m -> errs := m :: !errs) fmt in
  List.iter
    (fun p ->
      let drives = Cdfg.drives cdfg p in
      let driven = Cdfg.driven_by cdfg p in
      if List.length drives > 2 then
        err "partition %d drives %d partitions (max 2)" p (List.length drives);
      if List.length driven > 2 then
        err "partition %d is driven by %d partitions (max 2)" p
          (List.length driven);
      (match driven with
      | [ q1; q2 ] ->
          List.iter
            (fun q ->
              if Cdfg.drives cdfg q <> [ p ] then
                err
                  "partition %d has two drivers, but driver %d also drives \
                   others"
                  p q)
            [ q1; q2 ]
      | _ -> ());
      match drives with
      | [ a1; a2 ] ->
          List.iter
            (fun a ->
              if Cdfg.driven_by cdfg a <> [ p ] then
                err
                  "partition %d drives two partitions, but %d has other \
                   drivers"
                  p a)
            [ a1; a2 ]
      | _ -> ())
    parts;
  List.rev !errs

let is_simple cdfg = violations cdfg = []

(* --- Pin allocation ILP (§3.1.1, reduced per §3.1.2) --- *)

module Pin_ilp = struct
  type merged = {
    m_src : int;
    m_dst : int;
    m_width : int;
    m_ops : Types.op_id list;
  }

  let split_ops cdfg =
    (* Single-fanout operations merge by (src, dst, width); the rest stay
       individual with the y-linearization of Constraint 3.6. *)
    let single, multi =
      List.partition
        (fun w ->
          List.length (Cdfg.io_ops_of_value cdfg (Cdfg.io_value cdfg w)) = 1)
        (Cdfg.io_ops cdfg)
    in
    let merged =
      List.map
        (fun ((src, dst, width), ops) -> { m_src = src; m_dst = dst; m_width = width; m_ops = ops })
        (Mcs_util.Listx.group_by
           (fun w -> (Cdfg.io_src cdfg w, Cdfg.io_dst cdfg w, Cdfg.io_width cdfg w))
           single)
    in
    (merged, multi)

  let model cdfg cons ~rate ~fixed =
    let m = Model.create () in
    let n = Cdfg.n_partitions cdfg in
    let merged, multi = split_ops cdfg in
    let groups = Mcs_util.Listx.range 0 rate in
    (* Variables. *)
    let xm =
      List.map
        (fun g ->
          ( g,
            List.map
              (fun k ->
                Model.int_var m ~lo:0
                  ~hi:(List.length g.m_ops)
                  (Printf.sprintf "x_%d_%d_w%d_k%d" g.m_src g.m_dst g.m_width k))
              groups ))
        merged
    in
    let xw =
      List.map
        (fun w ->
          ( w,
            List.map
              (fun k ->
                Model.binary m
                  (Printf.sprintf "x_%s_k%d" (Cdfg.name cdfg w) k))
              groups ))
        multi
    in
    let multi_values =
      Mcs_util.Listx.uniq String.equal (List.map (Cdfg.io_value cdfg) multi)
    in
    let yv =
      List.map
        (fun v ->
          ( v,
            List.map
              (fun k -> Model.binary m (Printf.sprintf "y_%s_k%d" v k))
              groups ))
        multi_values
    in
    let o =
      List.map
        (fun j ->
          ( j,
            Model.int_var m ~lo:0
              ~hi:(Constraints.pins cons j)
              (Printf.sprintf "o_%d" j) ))
        (Mcs_util.Listx.range 0 (n + 1))
    in
    let ovar j = List.assoc j o in
    (* Constraint 3.4 / its merged form: everything allocated somewhere. *)
    List.iter
      (fun (g, vars) ->
        Model.add_ge m
          (Model.sum (List.map Model.v vars))
          (Model.const (List.length g.m_ops)))
      xm;
    List.iter
      (fun (_, vars) ->
        Model.add_ge m (Model.sum (List.map Model.v vars)) (Model.const 1))
      xw;
    (* Constraint 3.6: y_v,k = max over the value's operations. *)
    List.iter
      (fun (v, yvars) ->
        let ops_of_v = List.filter (fun w -> String.equal (Cdfg.io_value cdfg w) v) multi in
        List.iteri
          (fun k y ->
            let xs = List.map (fun w -> List.nth (List.assoc w xw) k) ops_of_v in
            Model.add_le m
              (Model.sum (List.map Model.v xs))
              (Model.term (List.length ops_of_v) y))
          yvars)
      yv;
    (* Constraints 3.7 (inputs + o_i <= T_i) and 3.8 (outputs <= o_j). *)
    List.iter
      (fun i ->
        List.iteri
          (fun k _ ->
            let input_terms =
              List.filter_map
                (fun (g, vars) ->
                  if g.m_dst = i then
                    Some (Model.term g.m_width (List.nth vars k))
                  else None)
                xm
              @ List.filter_map
                  (fun (w, vars) ->
                    if Cdfg.io_dst cdfg w = i then
                      Some (Model.term (Cdfg.io_width cdfg w) (List.nth vars k))
                    else None)
                  xw
            in
            Model.add_le m
              (Model.add (Model.sum input_terms) (Model.v (ovar i)))
              (Model.const (Constraints.pins cons i));
            let output_terms =
              List.filter_map
                (fun (g, vars) ->
                  if g.m_src = i then
                    Some (Model.term g.m_width (List.nth vars k))
                  else None)
                xm
              @ List.filter_map
                  (fun (v, yvars) ->
                    let ops_of_v =
                      List.filter
                        (fun w -> String.equal (Cdfg.io_value cdfg w) v)
                        multi
                    in
                    match ops_of_v with
                    | w :: _ when Cdfg.io_src cdfg w = i ->
                        Some
                          (Model.term (Cdfg.io_width cdfg w) (List.nth yvars k))
                    | _ -> None)
                  yv
            in
            Model.add_le m (Model.sum output_terms) (Model.v (ovar i)))
          groups)
      (Mcs_util.Listx.range 0 (n + 1));
    (* Fixed (already scheduled) operations. *)
    let fixed_merged = Hashtbl.create 16 in
    List.iter
      (fun (w, k) ->
        match List.assoc_opt w xw with
        | Some vars -> Model.add_ge m (Model.v (List.nth vars k)) (Model.const 1)
        | None ->
            let key =
              (Cdfg.io_src cdfg w, Cdfg.io_dst cdfg w, Cdfg.io_width cdfg w, k)
            in
            Hashtbl.replace fixed_merged key
              (1 + Option.value ~default:0 (Hashtbl.find_opt fixed_merged key)))
      fixed;
    Hashtbl.iter
      (fun (src, dst, width, k) count ->
        match
          List.find_opt
            (fun (g, _) -> g.m_src = src && g.m_dst = dst && g.m_width = width)
            xm
        with
        | Some (_, vars) ->
            Model.add_ge m (Model.v (List.nth vars k)) (Model.const count)
        | None -> ())
      fixed_merged;
    m

  (* Rate deliberately left out of the key: the whole point is that rate
     r's basis warm-starts rate r+1 (variables are named, so r's columns
     are a subset of r+1's).  A collision between same-shaped designs is
     benign — unmatched names drop out of the crash list. *)
  let warm_key cdfg =
    Printf.sprintf "pin-ilp:%dp:%do" (Cdfg.n_partitions cdfg)
      (List.length (Cdfg.io_ops cdfg))

  let feasible ?budget ?(method_ = `Branch_bound) ?arith cdfg cons ~rate
      ~fixed =
    let m = model cdfg cons ~rate ~fixed in
    match Model.solve ?budget ~method_ ?arith ~warm_key:(warm_key cdfg) m with
    | Model.Optimal _ -> true
    (* A feasibility model with an integer point in hand is feasible even
       when the node budget ran out before proving it optimal. *)
    | Model.Feasible _ -> true
    | Model.Infeasible -> false
    | Model.Unbounded -> true
    | Model.Unknown -> false
    | Model.Exhausted e ->
        (* Unlike [Unknown] (the solver's own node cap, where postponing
           the operation is safe and convergence is still plausible), an
           exhausted caller budget means the whole schedule attempt is out
           of time: propagate so [List_sched.run] fails typed and the
           flow's degradation ladder can take over. *)
        raise (Mcs_resilience.Budget.Out_of_budget e)
end

let hook ?budget ?arith cdfg cons ~rate =
  let committed = ref [] in
  let io_can sched op ~cstep =
    ignore sched;
    let k = cstep mod rate in
    Pin_ilp.feasible ?budget ?arith cdfg cons ~rate
      ~fixed:((op, k) :: !committed)
  in
  let io_commit sched op ~cstep =
    ignore sched;
    committed := (op, cstep mod rate) :: !committed
  in
  { Mcs_sched.List_sched.io_can; io_commit }

(* --- Theorem 3.1 constructive connection --- *)

module Theorem31 = struct
  type bundle = {
    owner : [ `Out of int | `In of int ];
    counterparts : int list;
    wires : int;
  }

  module Sched = Mcs_sched.Schedule

  (* Bits partition [f] sends to partition [a] in control-step group [k]. *)
  let bits_at sched ~f ~a k =
    let cdfg = Sched.cdfg sched in
    Mcs_util.Listx.sum
      (fun w ->
        if
          Cdfg.io_src cdfg w = f
          && Cdfg.io_dst cdfg w = a
          && Sched.group sched w = k
        then Cdfg.io_width cdfg w
        else 0)
      (Cdfg.io_ops cdfg)

  (* Output bits of [f] in group [k], counting a value sent to several
     destinations in the same control step once (it shares output pins,
     section 2.2.1). *)
  let out_bits sched ~f k =
    let cdfg = Sched.cdfg sched in
    Mcs_util.Listx.sum
      (fun v ->
        let live =
          List.filter
            (fun w -> Cdfg.io_src cdfg w = f && Sched.group sched w = k)
            (Cdfg.io_ops_of_value cdfg v)
        in
        match live with
        | [] -> 0
        | w :: _ ->
            let csteps =
              Mcs_util.Listx.uniq ( = ) (List.map (Sched.cstep sched) live)
            in
            Cdfg.io_width cdfg w * List.length csteps)
      (Cdfg.values_output_by cdfg f)

  let in_bits sched ~a k =
    let cdfg = Sched.cdfg sched in
    Mcs_util.Listx.sum
      (fun w ->
        if Cdfg.io_dst cdfg w = a && Sched.group sched w = k then
          Cdfg.io_width cdfg w
        else 0)
      (Cdfg.io_ops cdfg)

  let groups sched = Mcs_util.Listx.range 0 (Sched.rate sched)

  let max_over sched f =
    List.fold_left (fun acc k -> max acc (f k)) 0 (groups sched)

  let abc ~owner ~x ~y ~mx ~my ~needed =
    let nc = max 0 (mx + my - needed) in
    List.filter
      (fun b -> b.wires > 0)
      [
        { owner; counterparts = [ x ]; wires = mx - nc };
        { owner; counterparts = [ y ]; wires = my - nc };
        { owner; counterparts = [ x; y ]; wires = nc };
      ]

  let neighbours sched ~of_src p =
    let cdfg = Sched.cdfg sched in
    List.sort_uniq compare
      (List.filter_map
         (fun w ->
           if of_src && Cdfg.io_src cdfg w = p then Some (Cdfg.io_dst cdfg w)
           else if (not of_src) && Cdfg.io_dst cdfg w = p then
             Some (Cdfg.io_src cdfg w)
           else None)
         (Cdfg.io_ops cdfg))

  let output_end sched f =
    let d = neighbours sched ~of_src:true f in
    let o_f = max_over sched (out_bits sched ~f) in
    match d with
    | [] -> []
    | [ a ] -> [ { owner = `Out f; counterparts = [ a ]; wires = o_f } ]
    | [ a; b ] ->
        abc ~owner:(`Out f) ~x:a ~y:b
          ~mx:(max_over sched (bits_at sched ~f ~a))
          ~my:(max_over sched (fun k -> bits_at sched ~f ~a:b k))
          ~needed:o_f
    | _ -> [ { owner = `Out f; counterparts = d; wires = o_f } ]

  let input_end sched a =
    let s = neighbours sched ~of_src:false a in
    let i_a = max_over sched (in_bits sched ~a) in
    match s with
    | [] -> []
    | [ f ] -> [ { owner = `In a; counterparts = [ f ]; wires = i_a } ]
    | [ f1; f2 ] ->
        abc ~owner:(`In a) ~x:f1 ~y:f2
          ~mx:(max_over sched (fun k -> bits_at sched ~f:f1 ~a k))
          ~my:(max_over sched (fun k -> bits_at sched ~f:f2 ~a k))
          ~needed:i_a
    | _ -> [ { owner = `In a; counterparts = s; wires = i_a } ]

  let connect sched =
    let cdfg = Sched.cdfg sched in
    let all = Mcs_util.Listx.range 0 (Cdfg.n_partitions cdfg + 1) in
    List.concat_map (output_end sched) all
    @ List.concat_map (input_end sched) all

  let check sched bundles =
    let ok = ref (Ok ()) in
    let fail fmt =
      Format.kasprintf (fun m -> if !ok = Ok () then ok := Error m) fmt
    in
    let cdfg = Sched.cdfg sched in
    let all = Mcs_util.Listx.range 0 (Cdfg.n_partitions cdfg + 1) in
    let wires_of owner pred =
      Mcs_util.Listx.sum
        (fun b -> if b.owner = owner && pred b.counterparts then b.wires else 0)
        bundles
    in
    List.iter
      (fun k ->
        List.iter
          (fun p ->
            (* End totals. *)
            let out_total = wires_of (`Out p) (fun _ -> true) in
            let in_total = wires_of (`In p) (fun _ -> true) in
            if out_bits sched ~f:p k > out_total then
              fail "group %d: output end of partition %d oversubscribed" k p;
            if in_bits sched ~a:p k > in_total then
              fail "group %d: input end of partition %d oversubscribed" k p;
            (* Per-counterpart reachability: bits to [a] must fit in the
               bundles of this end that reach [a]. *)
            List.iter
              (fun a ->
                if a <> p then begin
                  let reach = wires_of (`Out p) (fun cps -> List.mem a cps) in
                  if bits_at sched ~f:p ~a k > reach then
                    fail
                      "group %d: partition %d cannot reach %d (%d bits > %d \
                       wires)"
                      k p a
                      (bits_at sched ~f:p ~a k)
                      reach;
                  let reach_in = wires_of (`In a) (fun cps -> List.mem p cps) in
                  if bits_at sched ~f:p ~a k > reach_in then
                    fail
                      "group %d: input end of %d unreachable from %d" k a p
                end)
              all)
          all)
      (groups sched);
    !ok
end
