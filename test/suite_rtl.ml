(* Tests for the RTL layer: lifetimes, register binding (cyclic left-edge),
   functional-unit binding, multiplexer derivation. *)

open Mcs_cdfg
module F = Mcs_flow.Flow
module Sched = Mcs_sched.Schedule
module L = Mcs_rtl.Lifetime
module D = Mcs_rtl.Datapath

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let ar4 () =
  let d = Benchmarks.ar_general () in
  let spec =
    F.spec_of_design ~mode:Mcs_connect.Connection.Unidir ~flow:F.Ch4 d ~rate:4
  in
  (d, spec.F.cons, (Flows.ok (F.run F.Ch4 spec)).F.schedule)

let test_lifetime_basic () =
  let d, _, sched = ar4 () in
  let cdfg = d.Benchmarks.cdfg in
  let lts = L.analyse sched in
  (* Every registered lifetime starts after its producer finishes and ends
     no earlier than it starts. *)
  List.iter
    (fun (l : L.t) ->
      if L.span l > 0 then begin
        checkb "birth after production" true
          (l.birth > Sched.cstep sched l.producer
          || Cdfg.is_io cdfg l.producer);
        checkb "death >= birth" true (l.death >= l.birth)
      end)
    lts;
  (* A value transferred into a chip has a lifetime there. *)
  let xfer =
    List.find
      (fun w -> Cdfg.io_src cdfg w <> 0 && Cdfg.io_dst cdfg w <> 0)
      (Cdfg.io_ops cdfg)
  in
  checkb "incoming transfer registered somewhere" true
    (List.exists
       (fun (l : L.t) ->
         l.producer = xfer && l.on_partition = Cdfg.io_dst cdfg xfer)
       lts)

let test_lifetime_recursive_stretch () =
  (* The elliptic filter's degree-4 transfer keeps its value alive across
     four initiation intervals. *)
  let d = Benchmarks.elliptic () in
  let cons = Benchmarks.constraints_for d ~rate:6 in
  match
    Mcs_sched.List_sched.run d.Benchmarks.cdfg d.Benchmarks.mlib cons ~rate:6 ()
  with
  | Error _ -> Alcotest.fail "scheduling failed"
  | Ok sched ->
      let cdfg = d.Benchmarks.cdfg in
      let x33 =
        List.find (fun w -> Cdfg.name cdfg w = "X33") (Cdfg.io_ops cdfg)
      in
      let t2 = List.find (fun o -> Cdfg.name cdfg o = "t2") (Cdfg.ops cdfg) in
      let lts = L.analyse sched in
      let l = List.find (fun (l : L.t) -> l.producer = x33) lts in
      (* The consumer reads four initiation intervals after its own step. *)
      checki "death at the recursive read" (Sched.cstep sched t2 + (4 * 6)) l.death;
      checkb "held across the loop slack" true (L.span l >= 1)

let test_register_lower_bound_respected () =
  let d, cons, sched = ar4 () in
  match D.build sched cons with
  | Error m -> Alcotest.fail m
  | Ok rtl ->
      List.iter
        (fun (p, lb) ->
          checkb
            (Printf.sprintf "P%d binding >= lower bound" p)
            true
            (D.register_count rtl p >= lb))
        (L.registers_lower_bound sched);
      ignore d

let test_register_binding_no_overlap () =
  let _, cons, sched = ar4 () in
  let rate = Sched.rate sched in
  match D.build sched cons with
  | Error m -> Alcotest.fail m
  | Ok rtl ->
      (* No register holds two values in the same control-step group. *)
      List.iter
        (fun rp ->
          List.iter
            (fun (r : D.register) ->
              let taken = Array.make rate false in
              List.iter
                (fun (_, b, e) ->
                  List.iter
                    (fun x ->
                      let g = ((x mod rate) + rate) mod rate in
                      checkb "register group free" false taken.(g);
                      taken.(g) <- true)
                    (Mcs_util.Listx.range b (e + 1)))
                r.holds)
            rp.D.registers)
        rtl.D.parts

let test_fu_binding_covers_all_ops () =
  let d, cons, sched = ar4 () in
  match D.build sched cons with
  | Error m -> Alcotest.fail m
  | Ok rtl ->
      let cdfg = d.Benchmarks.cdfg in
      List.iter
        (fun p ->
          let bound =
            List.concat_map snd (List.find (fun rp -> rp.D.rp_partition = p) rtl.D.parts).D.fus
          in
          checki
            (Printf.sprintf "P%d all ops bound" p)
            (List.length (Cdfg.func_ops_of_partition cdfg p))
            (List.length bound))
        [ 1; 2; 3 ];
      (* FU count within constraints. *)
      List.iter
        (fun rp ->
          List.iter
            (fun ((fu : D.fu), _) ->
              checkb "fu index within allocation" true
                (fu.fu_index
                < Constraints.fu_count cons ~partition:rp.D.rp_partition
                    ~optype:fu.fu_optype))
            rp.D.fus)
        rtl.D.parts

let test_fu_binding_no_group_conflict () =
  let d, cons, sched = ar4 () in
  match D.build sched cons with
  | Error m -> Alcotest.fail m
  | Ok rtl ->
      let cdfg = d.Benchmarks.cdfg in
      let mlib = d.Benchmarks.mlib in
      let rate = Sched.rate sched in
      List.iter
        (fun rp ->
          List.iter
            (fun (_, ops) ->
              (* Operations sharing a unit never overlap on the wheel. *)
              let cells = Hashtbl.create 8 in
              List.iter
                (fun op ->
                  List.iter
                    (fun k ->
                      let g = (Sched.group sched op + k) mod rate in
                      checkb "wheel cell free" false (Hashtbl.mem cells g);
                      Hashtbl.add cells g ())
                    (Mcs_util.Listx.range 0 (Timing.op_cycles cdfg mlib op)))
                ops)
            rp.D.fus)
        rtl.D.parts

let test_muxes_where_sharing () =
  let _, cons, sched = ar4 () in
  match D.build sched cons with
  | Error m -> Alcotest.fail m
  | Ok rtl ->
      (* Units executing several operations need input multiplexers unless
         every operand happens to come from one source; the AR filter at
         rate 4 certainly shares units, so some muxes must exist. *)
      let total =
        Mcs_util.Listx.sum (fun rp -> List.length rp.D.muxes) rtl.D.parts
      in
      checkb "sharing induces muxes" true (total > 0);
      List.iter
        (fun rp ->
          List.iter
            (fun (m : D.mux) -> checkb "mux fans in >= 2" true (m.mux_inputs >= 2))
            rp.D.muxes)
        rtl.D.parts

let test_rtl_printers () =
  let _, cons, sched = ar4 () in
  match D.build sched cons with
  | Error m -> Alcotest.fail m
  | Ok rtl ->
      let s = Format.asprintf "%a" D.pp rtl in
      checkb "structural listing nonempty" true (String.length s > 100);
      let v = Format.asprintf "%a" D.pp_verilog rtl in
      checkb "verilog mentions modules" true
        (String.length v > 100
        &&
        let rec contains i =
          i + 6 <= String.length v
          && (String.sub v i 6 = "module" || contains (i + 1))
        in
        contains 0)

let test_build_rejects_undersized_constraints () =
  let d, _, sched = ar4 () in
  let tight =
    Constraints.create ~n_partitions:3
      ~pins:[ (0, 200); (1, 200); (2, 200); (3, 200) ]
      ~fus:[ (1, "add", 1); (1, "mul", 1); (2, "add", 1); (2, "mul", 1);
             (3, "add", 1); (3, "mul", 1) ]
  in
  ignore d;
  checkb "over-tight constraints rejected" true
    (match D.build sched tight with Error _ -> true | Ok _ -> false)

let suite =
  ( "rtl",
    [
      Alcotest.test_case "lifetimes well-formed" `Quick test_lifetime_basic;
      Alcotest.test_case "recursive edges stretch lifetimes" `Quick test_lifetime_recursive_stretch;
      Alcotest.test_case "register binding >= lower bound" `Quick test_register_lower_bound_respected;
      Alcotest.test_case "register binding never overlaps" `Quick test_register_binding_no_overlap;
      Alcotest.test_case "FU binding covers all operations" `Quick test_fu_binding_covers_all_ops;
      Alcotest.test_case "FU binding respects the wheels" `Quick test_fu_binding_no_group_conflict;
      Alcotest.test_case "shared units get multiplexers" `Quick test_muxes_where_sharing;
      Alcotest.test_case "printers produce output" `Quick test_rtl_printers;
      Alcotest.test_case "build rejects undersized constraints" `Quick test_build_rejects_undersized_constraints;
    ] )
