open Mcs_cdfg
module Sched = Mcs_sched.Schedule

let mask = (1 lsl 30) - 1

let hash_combine acc x = ((acc * 1000003) + x) land mask

(* Operator meaning: "add", "sub" and "mul" as arithmetic, any other type
   as a deterministic hash of its operands, all masked to 30 bits. *)
let semantics ty args =
  match ty with
  | "add" -> List.fold_left ( + ) 0 args land mask
  | "sub" -> List.fold_left (fun a b -> (a - b) land mask) 0 args
  | "mul" -> List.fold_left (fun a b -> a * b land mask) 1 args
  | _ ->
      List.fold_left hash_combine (Hashtbl.hash ty land mask) args

type inputs = string -> int -> int

let random_inputs ~seed value instance =
  Hashtbl.hash (seed, value, instance) land mask

type trace = { outputs : ((string * int) * int) list }

(* Deterministic value for instances before the first (what the registers
   hold at reset). *)
let seed_value op instance = Hashtbl.hash ("reset", op, instance) land mask

(* Incoming edges of each op, in declaration order (= operand order). *)
let incoming cdfg =
  let n = Cdfg.n_ops cdfg in
  let inc = Array.make n [] in
  List.iter
    (fun ({ Types.e_dst; _ } as e) -> inc.(e_dst) <- e :: inc.(e_dst))
    (List.rev (Cdfg.edges cdfg));
  inc

(* Denotational value of every (op, instance). *)
let evaluate cdfg ~inputs ~instances =
  let inc = incoming cdfg in
  let values = Hashtbl.create 1024 in
  let value op n =
    if n < 0 then seed_value op n else Hashtbl.find values (op, n)
  in
  for n = 0 to instances - 1 do
    List.iter
      (fun op ->
        let operands =
          List.map
            (fun { Types.e_src; degree; _ } -> value e_src (n - degree))
            inc.(op)
        in
        let v =
          match Cdfg.node cdfg op with
          | Types.Io { src = 0; value; _ } -> inputs value n
          | Types.Io _ -> (
              (* A transfer forwards its (single) producer's value. *)
              match operands with
              | [ v ] -> v
              | [] -> seed_value op n
              | v :: _ -> v)
          | Types.Func { optype; _ } -> semantics optype operands
        in
        Hashtbl.replace values (op, n) v)
      (Cdfg.topo_order cdfg)
  done;
  values

let outputs_of cdfg values ~instances =
  let outs =
    List.filter (fun w -> Cdfg.io_dst cdfg w = 0) (Cdfg.io_ops cdfg)
  in
  let rows =
    List.concat_map
      (fun w ->
        List.map
          (fun n -> ((Cdfg.name cdfg w, n), Hashtbl.find values (w, n)))
          (Mcs_util.Listx.range 0 instances))
      outs
  in
  { outputs = List.sort compare rows }

let reference cdfg ~inputs ~instances =
  outputs_of cdfg (evaluate cdfg ~inputs ~instances) ~instances

let machine sched ~bus_of ~bus_capable ~inputs ~instances =
  let cdfg = Sched.cdfg sched in
  let mlib = Sched.mlib sched in
  let rate = Sched.rate sched in
  let inc = incoming cdfg in
  let err = ref None in
  let fail fmt = Format.kasprintf (fun m -> if !err = None then err := Some m) fmt in
  (* Events in hardware order: by absolute start cycle, then by
     combinational finish offset (chained ops execute left to right within a
     step), then topologically. *)
  let topo_pos = Array.make (Cdfg.n_ops cdfg) 0 in
  List.iteri (fun i op -> topo_pos.(op) <- i) (Cdfg.topo_order cdfg);
  let events =
    List.concat_map
      (fun n ->
        List.map
          (fun op -> ((n * rate) + Sched.cstep sched op, Sched.finish_ns sched op, topo_pos.(op), op, n))
          (Cdfg.ops cdfg))
      (Mcs_util.Listx.range 0 instances)
  in
  let events = List.sort compare events in
  let values = Hashtbl.create 1024 in
  (* Bus slot occupancy: (slot, absolute cycle) -> (value name, instance). *)
  let busy = Hashtbl.create 256 in
  let read ~consumer_abs ~consumer op n =
    if n < 0 then Some (seed_value op n)
    else
      match Hashtbl.find_opt values (op, n) with
      | None ->
          fail "instance %d of %s reads %s (instance %d) before it executes"
            (consumer_abs / rate) (Cdfg.name cdfg consumer) (Cdfg.name cdfg op)
            n;
          None
      | Some v ->
          (* Registered availability or same-cycle chaining. *)
          let src_abs = (n * rate) + Sched.cstep sched op in
          let avail = src_abs + Timing.op_cycles cdfg mlib op in
          if consumer_abs >= avail || consumer_abs = src_abs then Some v
          else begin
            fail "%s reads %s before it is latched (cycle %d < %d)"
              (Cdfg.name cdfg consumer) (Cdfg.name cdfg op) consumer_abs avail;
            None
          end
  in
  List.iter
    (fun (abs, _, _, op, n) ->
      if !err = None then begin
        let operands =
          List.filter_map
            (fun { Types.e_src; degree; _ } ->
              read ~consumer_abs:abs ~consumer:op e_src (n - degree))
            inc.(op)
        in
        if !err = None then begin
          let v =
            match Cdfg.node cdfg op with
            | Types.Io { src = 0; value; _ } -> inputs value n
            | Types.Io _ -> (
                match operands with
                | [ v ] -> v
                | [] -> seed_value op n
                | v :: _ -> v)
            | Types.Func { optype; _ } -> semantics optype operands
          in
          (match Cdfg.node cdfg op with
          | Types.Io { value; _ } ->
              (* The transfer claims its bus slots this very cycle. *)
              List.iter
                (fun slot ->
                  if not (bus_capable slot op) then
                    fail "bus slot %d too narrow for %s" slot
                      (Cdfg.name cdfg op);
                  match Hashtbl.find_opt busy (slot, abs) with
                  | Some (v', n') when not (String.equal v' value && n' = n) ->
                      fail
                        "bus conflict on slot %d at cycle %d: %s (inst %d) \
                         vs %s (inst %d)"
                        slot abs value n v' n'
                  | _ -> Hashtbl.replace busy (slot, abs) (value, n))
                (bus_of op)
          | Types.Func _ -> ());
          Hashtbl.replace values (op, n) v
        end
      end)
    events;
  match !err with
  | Some m -> Error m
  | None -> Ok (outputs_of cdfg values ~instances)

let m_equiv_checks = Mcs_obs.Metrics.counter "sim.equiv_checks"

let check_equivalent sched ~bus_of ~bus_capable ~seed ~instances =
  Mcs_obs.Metrics.incr m_equiv_checks;
  let cdfg = Sched.cdfg sched in
  let inputs = random_inputs ~seed in
  let want = reference cdfg ~inputs ~instances in
  match machine sched ~bus_of ~bus_capable ~inputs ~instances with
  | Error m -> Error m
  | Ok got ->
      if got.outputs = want.outputs then Ok ()
      else
        let diff =
          List.find_opt
            (fun (k, v) -> List.assoc_opt k want.outputs <> Some v)
            got.outputs
        in
        Error
          (match diff with
          | Some ((name, n), v) ->
              Printf.sprintf
                "output %s (instance %d): machine produced %d, reference %s"
                name n v
                (match List.assoc_opt (name, n) want.outputs with
                | Some r -> string_of_int r
                | None -> "nothing")
          | None -> "traces differ in shape")
