(** Schedule improvement by postponement and restart.

    §5.3 and §6.3 note that "for most of the test cases, given the same
    interchip connections, better scheduling results ... can be obtained by
    postponing some of the operations" — the authors did this by hand,
    constraining operations and rerunning; §8.2 lists replacing the greedy
    list scheduler as future work.  This module mechanizes the trick:
    {!pre_connect} runs the Chapter 4 connection search, then retries the
    scheduling phase with deterministic priority perturbations and with
    targeted postponement floors on late-critical operations, keeping the
    shortest valid schedule found.  It also recovers where the plain
    greedy run fails outright (the elliptic filter at its minimum rate):
    it succeeds whenever any perturbation schedules. *)

open Mcs_cdfg

val pre_connect :
  Cdfg.t ->
  Module_lib.t ->
  Constraints.t ->
  rate:int ->
  mode:Mcs_connect.Connection.mode ->
  ?trials:int ->
  unit ->
  (Mcs_sched.Schedule.t, string) result
(** The best-of-[trials] (default 12) schedule over the interchip
    connection of the loosest per-bus value cap that schedules at all, the
    cap sweep of the Chapter 4 flow. *)
