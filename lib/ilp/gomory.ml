module M = Mcs_obs.Metrics

let m_solves = M.counter "gomory.solves"
let m_cuts = M.counter "gomory.cuts"
let m_gave_up = M.counter "gomory.gave_up"

type result =
  | Optimal of Simplex.solution
  | Infeasible
  | Unbounded
  | Gave_up

(* Cuts tried before a solve reports [Gave_up]. *)
let max_cuts = 500

let solve ?budget p =
  M.incr m_solves;
  match Simplex.Tab.of_problem ?budget p with
  | `Infeasible -> Infeasible
  | `Unbounded -> Unbounded
  | `Exhausted _ ->
      M.incr m_gave_up;
      Gave_up
  | `Solved t ->
      let rec refine cuts =
        match Simplex.Tab.fractional_basic t with
        | None -> Optimal (Simplex.Tab.solution t)
        | Some _ when cuts >= max_cuts ->
            M.incr m_gave_up;
            Gave_up
        | Some row -> (
            M.incr m_cuts;
            Simplex.Tab.add_gomory_cut t row;
            match Simplex.Tab.reoptimize_dual t with
            | `Infeasible -> Infeasible
            | `Exhausted _ ->
                M.incr m_gave_up;
                Gave_up
            | `Ok -> refine (cuts + 1))
      in
      refine 0
