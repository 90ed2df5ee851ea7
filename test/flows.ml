(* The chapter flows as the tests drive them: [Mcs_flow.Flow.run], the
   pipeline mcs-synth, dse and mcs-serve run, on a spec from
   [Flow.spec_of_design] or one built directly, plus accessors for the
   connection shape each chapter produces. *)

module F = Mcs_flow.Flow
module A = Mcs_flow.Artifact

let run ?pipe_length ?mode flow d ~rate =
  F.run flow (F.spec_of_design ?pipe_length ?mode ~flow d ~rate)

(* A spec for a design that is not a bundled benchmark. *)
let spec cdfg mlib cons ~rate ~mode =
  { F.tag = "test"; cdfg; mlib; cons; rate; pipe_length = None; mode }

let ok = function
  | Ok (r : F.result) -> r
  | Error d -> Alcotest.fail (Mcs_flow.Diag.message d)

let run_ok ?pipe_length ?mode flow d ~rate =
  ok (run ?pipe_length ?mode flow d ~rate)

let bundles (r : F.result) =
  match r.F.connection with
  | A.Bundles links -> links
  | A.Buses _ | A.Subbuses _ -> Alcotest.fail "expected Theorem 3.1 bundles"

(* Shared buses (Ch. 4/5): the connection and the final assignment. *)
let buses (r : F.result) =
  match r.F.connection with
  | A.Buses { conn; assignment; _ } -> (conn, assignment)
  | A.Bundles _ | A.Subbuses _ -> Alcotest.fail "expected shared buses"

(* Sub-buses (Ch. 6): the buses, the final assignment and the allocation
   table. *)
let subbuses (r : F.result) =
  match r.F.connection with
  | A.Subbuses { buses; assignment; allocation; _ } ->
      (buses, assignment, allocation)
  | A.Bundles _ | A.Buses _ -> Alcotest.fail "expected sub-buses"
