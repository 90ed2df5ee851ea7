open Mcs_cdfg

module Recursion = struct
  let theorem71_instance ~tasks ~precedence ~machines ~deadline =
    if tasks < 1 || machines < 1 || deadline < 1 then
      invalid_arg "theorem71_instance";
    let b = Cdfg.Builder.create ~n_partitions:2 in
    (* Chain t_1 .. t_{D+1} on chip 1 (single operator). *)
    let chain =
      List.map
        (fun i -> Cdfg.Builder.func b ~name:(Printf.sprintf "t%d" i) ~partition:1 "t")
        (Mcs_util.Listx.range 1 (deadline + 2))
    in
    List.iter2
      (fun a c -> Cdfg.Builder.dep b a c)
      (Mcs_util.Listx.take (deadline) chain)
      (List.tl chain);
    let last = List.nth chain deadline in
    (* X feeds every PCS task on chip 2. *)
    let x = Cdfg.Builder.io b ~name:"X" ~src:1 ~dst:2 ~width:8 "vx" in
    Cdfg.Builder.dep b last x;
    let task =
      Array.init tasks (fun i ->
          Cdfg.Builder.func b ~name:(Printf.sprintf "T%d" (i + 1)) ~partition:2 "t")
    in
    Array.iter (fun tk -> Cdfg.Builder.dep b x tk) task;
    List.iter
      (fun (i, j) ->
        if i < 1 || i > tasks || j < 1 || j > tasks then
          invalid_arg "theorem71_instance: precedence out of range";
        Cdfg.Builder.dep b task.(i - 1) task.(j - 1))
      precedence;
    (* Y collects all tasks back to chip 1, consumed two instances later. *)
    let y = Cdfg.Builder.io b ~name:"Y" ~src:2 ~dst:1 ~width:8 "vy" in
    Array.iter (fun tk -> Cdfg.Builder.dep b tk y) task;
    (match chain with
    | t1 :: _ -> Cdfg.Builder.dep b ~degree:2 y t1
    | [] -> assert false);
    let cdfg = Cdfg.Builder.finish b in
    let cons =
      Constraints.create ~n_partitions:2
        ~pins:[ (0, 64); (1, 64); (2, 64) ]
        ~fus:[ (1, "t", 1); (2, "t", machines) ]
    in
    (* Unit-time operations; I/O fills a whole step so nothing chains. *)
    let mlib = Module_lib.create ~stage_ns:100 ~io_delay_ns:100 [ ("t", 100) ] in
    (cdfg, cons, mlib, deadline + 2)

  let with_buses cdfg cons mlib ~rate ~n_buses =
    let conn =
      Mcs_connect.Connection.create Mcs_connect.Connection.Bidir
        ~n_partitions:(Cdfg.n_partitions cdfg)
    in
    let ios = Cdfg.io_ops cdfg in
    let buses =
      List.map
        (fun _ ->
          let h = Mcs_connect.Connection.new_bus conn in
          Mcs_connect.Connection.widen_port conn ~bus:h ~partition:1 ~dir:`Out 8;
          Mcs_connect.Connection.widen_port conn ~bus:h ~partition:2 ~dir:`Out 8;
          h)
        (Mcs_util.Listx.range 0 n_buses)
    in
    let initial =
      List.mapi (fun i op -> (op, List.nth buses (i mod n_buses))) ios
    in
    let ra =
      Mcs_connect.Reassign.create cdfg conn ~rate ~initial ~dynamic:true
    in
    match
      Mcs_sched.List_sched.run cdfg mlib cons ~rate
        ~io_hook:(Mcs_connect.Reassign.hook ra) ()
    with
    | Ok s -> Mcs_sched.Schedule.verify s = Ok ()
    | Error _ -> false

  let schedulable_sharing_one_bus cdfg cons mlib ~rate =
    with_buses cdfg cons mlib ~rate ~n_buses:1

  let schedulable_with_two_buses cdfg cons mlib ~rate =
    with_buses cdfg cons mlib ~rate ~n_buses:2
end

module Cond_share = struct
  type group = {
    members : Types.op_id list;
    frame : int * int;
    ports : (int * int) list;
  }

  let port_vector cdfg members =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun w ->
        let add p width =
          let old = Option.value ~default:0 (Hashtbl.find_opt tbl p) in
          Hashtbl.replace tbl p (max old width)
        in
        add (Cdfg.io_src cdfg w) (Cdfg.io_width cdfg w);
        add (Cdfg.io_dst cdfg w) (Cdfg.io_width cdfg w))
      members;
    List.sort compare (Hashtbl.fold (fun p w acc -> (p, w) :: acc) tbl [])

  (* §7.2's [pf] weight on lost scheduling freedom and [f] weight on
     excluded future merges. *)
  let penalty_factor = 1.0
  let exclusion_factor = 0.5

  let run cdfg mlib ~rate ~pipe_length =
    let fixed = Array.make (Cdfg.n_ops cdfg) None in
    match Mcs_sched.Fds.frames cdfg mlib ~rate ~pipe_length ~fixed with
    | None -> []
    | Some (lb, ub) ->
        let conditional =
          List.filter (fun w -> Cdfg.guards cdfg w <> []) (Cdfg.io_ops cdfg)
        in
        let groups =
          ref
            (List.map
               (fun w ->
                 {
                   members = [ w ];
                   frame = (lb.(w), ub.(w));
                   ports = port_vector cdfg [ w ];
                 })
               conditional)
        in
        let frame_size (a, b') = b' - a + 1 in
        let inter (a1, b1) (a2, b2) = (max a1 a2, min b1 b2) in
        let union (a1, b1) (a2, b2) = (min a1 a2, max b1 b2) in
        let compatible g1 g2 =
          frame_size (inter g1.frame g2.frame) > 0
          && List.for_all
               (fun w1 ->
                 List.for_all
                   (fun w2 -> Cdfg.mutually_exclusive cdfg w1 w2)
                   g2.members)
               g1.members
        in
        let gain g1 g2 =
          Mcs_util.Listx.sum
            (fun (p, w1) ->
              match List.assoc_opt p g2.ports with
              | Some w2 -> min w1 w2
              | None -> 0)
            g1.ports
        in
        let basic_w g1 g2 =
          let penalty =
            (float_of_int (frame_size (union g1.frame g2.frame))
            /. float_of_int (frame_size (inter g1.frame g2.frame)))
            -. 1.0
          in
          float_of_int (gain g1 g2) -. (penalty_factor *. penalty)
        in
        let merged = ref true in
        while !merged do
          merged := false;
          let gs = Array.of_list !groups in
          let n = Array.length gs in
          let edges = ref [] in
          for i = 0 to n - 1 do
            for j = i + 1 to n - 1 do
              if compatible gs.(i) gs.(j) then
                edges := (i, j, basic_w gs.(i) gs.(j)) :: !edges
            done
          done;
          (* Modified weight: subtract the best merges this one excludes
             (first-order, §7.2). *)
          let adjacent i j =
            List.exists
              (fun (a, b', _) -> (a = i && b' = j) || (a = j && b' = i))
              !edges
          in
          let modified (i, j, w) =
            let best_excluded v other =
              List.fold_left
                (fun acc (a, b', w') ->
                  let u = if a = v then Some b' else if b' = v then Some a else None in
                  match u with
                  | Some u when u <> other && not (adjacent u other) ->
                      max acc w'
                  | _ -> acc)
                0.0 !edges
            in
            let e1 = best_excluded i j and e2 = best_excluded j i in
            w -. (Float.max e1 e2 +. (exclusion_factor *. Float.min e1 e2))
          in
          let best =
            Mcs_util.Listx.max_by
              (fun e -> int_of_float (1000.0 *. modified e))
              (List.filter (fun (_, _, w) -> w > 0.0) !edges)
          in
          match best with
          | Some (i, j, _) ->
              let gi = gs.(i) and gj = gs.(j) in
              let g' =
                {
                  members = gi.members @ gj.members;
                  frame = inter gi.frame gj.frame;
                  ports =
                    port_vector cdfg (gi.members @ gj.members);
                }
              in
              groups :=
                g'
                :: List.filteri (fun k _ -> k <> i && k <> j)
                     (Array.to_list gs);
              merged := true
          | None -> ()
        done;
        !groups

  let pins_saved cdfg groups =
    Mcs_util.Listx.sum
      (fun g ->
        let individual =
          Mcs_util.Listx.sum (fun w -> 2 * Cdfg.io_width cdfg w) g.members
        in
        let shared = Mcs_util.Listx.sum snd g.ports in
        individual - shared)
      groups
end

module Tdm = struct
  let find_transfer cdfg ~value ~dst =
    List.find_opt
      (fun w ->
        String.equal (Cdfg.io_value cdfg w) value && Cdfg.io_dst cdfg w = dst)
      (Cdfg.io_ops cdfg)

  let apply cdfg ~value ~dst ~parts ~split_optype ~merge_optype =
    if parts < 2 then invalid_arg "Tdm.apply: parts must be >= 2";
    let target =
      match find_transfer cdfg ~value ~dst with
      | Some t -> t
      | None -> invalid_arg "Tdm.apply: no such transfer"
    in
    let src = Cdfg.io_src cdfg target in
    let width = Cdfg.io_width cdfg target in
    let part_width = (width + parts - 1) / parts in
    let b = Cdfg.Builder.create ~n_partitions:(Cdfg.n_partitions cdfg) in
    let remap = Hashtbl.create 64 in
    (* Copy every node except the target transfer. *)
    List.iter
      (fun op ->
        if op <> target then begin
          let guards = Cdfg.guards cdfg op in
          let name = Cdfg.name cdfg op in
          let id =
            match Cdfg.node cdfg op with
            | Types.Func { optype; partition } ->
                Cdfg.Builder.func b ~name ~guards ~partition optype
            | Types.Io { value; src; dst; width } ->
                Cdfg.Builder.io b ~name ~guards ~src ~dst ~width value
          in
          Hashtbl.replace remap op id
        end)
      (Cdfg.ops cdfg);
    (* Split node in the source partition (interchip transfers only — the
       outside world supplies primary inputs pre-split). *)
    let guards = Cdfg.guards cdfg target in
    let feeder =
      if src = 0 then None
      else begin
        let split =
          Cdfg.Builder.func b
            ~name:(Printf.sprintf "split_%s" value)
            ~guards ~partition:src split_optype
        in
        List.iter
          (fun p -> Cdfg.Builder.dep b (Hashtbl.find remap p) split)
          (Cdfg.preds cdfg target);
        Some split
      end
    in
    let parts_io =
      List.map
        (fun i ->
          let io =
            Cdfg.Builder.io b
              ~name:(Printf.sprintf "%s.%d" (Cdfg.name cdfg target) i)
              ~guards ~src ~dst ~width:part_width
              (Printf.sprintf "%s#%d" value i)
          in
          (match feeder with
          | Some split -> Cdfg.Builder.dep b split io
          | None -> ());
          io)
        (Mcs_util.Listx.range 1 (parts + 1))
    in
    let merge =
      Cdfg.Builder.func b
        ~name:(Printf.sprintf "merge_%s" value)
        ~guards ~partition:dst merge_optype
    in
    List.iter (fun io -> Cdfg.Builder.dep b io merge) parts_io;
    (* Rewire all edges; the target's consumers now read the merge node. *)
    List.iter
      (fun { Types.e_src; e_dst; degree } ->
        if e_src = target then Cdfg.Builder.dep b ~degree merge (Hashtbl.find remap e_dst)
        else if e_dst = target then ()
          (* producer -> target handled via the split node *)
        else
          Cdfg.Builder.dep b ~degree (Hashtbl.find remap e_src)
            (Hashtbl.find remap e_dst))
      (Cdfg.edges cdfg);
    Cdfg.Builder.finish b

  let pin_effect cdfg ~value ~dst ~parts =
    match find_transfer cdfg ~value ~dst with
    | None -> invalid_arg "Tdm.pin_effect: no such transfer"
    | Some t ->
        let width = Cdfg.io_width cdfg t in
        (width, (width + parts - 1) / parts)
end

module Multicycle = struct
  let lower_bound ~ops ~rate ~cycles =
    if cycles > rate then
      invalid_arg "Multicycle.lower_bound: cycles exceed the initiation rate";
    let slots_per_fu = rate / cycles in
    (ops + slots_per_fu - 1) / slots_per_fu

  let fragmentation_demo () =
    let bad =
      let w = Mcs_sched.Alloc_wheel.create ~fus:1 ~rate:6 in
      ignore (Mcs_sched.Alloc_wheel.assign w ~group:0 ~cycles:2);
      ignore (Mcs_sched.Alloc_wheel.assign w ~group:3 ~cycles:2);
      Mcs_sched.Alloc_wheel.fit w ~group:2 ~cycles:2 <> None
      || Mcs_sched.Alloc_wheel.fit w ~group:5 ~cycles:2 <> None
    in
    let good =
      let w = Mcs_sched.Alloc_wheel.create ~fus:1 ~rate:6 in
      ignore (Mcs_sched.Alloc_wheel.assign w ~group:0 ~cycles:2);
      ignore (Mcs_sched.Alloc_wheel.assign w ~group:2 ~cycles:2);
      Mcs_sched.Alloc_wheel.fit w ~group:4 ~cycles:2 <> None
    in
    (bad, good)
end
