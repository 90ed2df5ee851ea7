(* A counter is a slot in per-domain shards (below), not a cell of its
   own: every domain bumps only its own shard, so concurrent updates are
   never lost and a domain can read back exactly its own share. *)
type counter = { id : int }
type gauge = { mutable g_value : float }

type histogram = {
  h_bounds : int array;
  h_counts : int array; (* one slot per bound plus the overflow bucket *)
  mutable h_sum : int;
  mutable h_total : int;
}

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      bounds : int array;
      counts : int array;
      sum : int;
      total : int;
    }

type instrument = C of counter | G of gauge | H of histogram

let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64

(* The registry itself is shared across domains (worker domains register
   and read instruments concurrently), so structural operations —
   registration, snapshot, reset, the shard list — take this lock.  The
   hot-path updates ([incr]/[set]/[observe]) stay lock-free.  Counters
   are exact because each domain writes only its own shard; gauges and
   histograms are single shared cells, where a lost update under
   contention only skews a statistic. *)
let registry_lock = Mutex.create ()

let locked f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

(* ---- per-domain counter shards ---- *)

type shard = { mutable counts : int array }  (* indexed by counter id *)

let n_counters = ref 0

(* Shards of running domains, and the sum of every exited domain's shard:
   a read merges both, so a domain's counts outlive it.  Both are only
   touched under [registry_lock], and a shard moves from one to the other
   in a single locked step, so a read never counts it twice or not at
   all. *)
let live_shards : shard list ref = ref []
let retired = { counts = [||] }

let add_into dst src =
  let n = Array.length src.counts in
  if Array.length dst.counts < n then begin
    let a = Array.make n 0 in
    Array.blit dst.counts 0 a 0 (Array.length dst.counts);
    dst.counts <- a
  end;
  Array.iteri (fun i v -> dst.counts.(i) <- dst.counts.(i) + v) src.counts

let shard_key =
  Domain.DLS.new_key (fun () ->
      let s = { counts = [||] } in
      locked (fun () -> live_shards := s :: !live_shards);
      Domain.at_exit (fun () ->
          locked (fun () ->
              add_into retired s;
              live_shards := List.filter (fun s' -> s' != s) !live_shards));
      s)

let register name mk classify =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some i -> classify i
      | None ->
          let i = mk () in
          Hashtbl.add registry name i;
          classify i)

let counter name =
  register name
    (fun () ->
      let id = !n_counters in
      incr n_counters;
      C { id })
    (function
      | C c -> c
      | G _ | H _ -> invalid_arg ("Metrics.counter: " ^ name ^ " is not a counter"))

let gauge name =
  register name
    (fun () -> G { g_value = 0.0 })
    (function
      | G g -> g
      | C _ | H _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " is not a gauge"))

let histogram name ~buckets =
  if Array.length buckets = 0 then
    invalid_arg "Metrics.histogram: empty bucket list";
  Array.iteri
    (fun i b ->
      if i > 0 && buckets.(i - 1) >= b then
        invalid_arg "Metrics.histogram: buckets must be strictly increasing")
    buckets;
  register name
    (fun () ->
      {
        h_bounds = Array.copy buckets;
        h_counts = Array.make (Array.length buckets + 1) 0;
        h_sum = 0;
        h_total = 0;
      }
      |> fun h -> H h)
    (function
      | H h ->
          if h.h_bounds <> buckets then
            invalid_arg
              ("Metrics.histogram: " ^ name
             ^ " already registered with different buckets");
          h
      | C _ | G _ ->
          invalid_arg ("Metrics.histogram: " ^ name ^ " is not a histogram"))

(* Only the owning domain ever writes its shard, so growing it (a counter
   registered after the shard was made) is a plain copy; a concurrent
   reader may still see the old array, i.e. a slightly stale count. *)
let grow s id n =
  let a = Array.make (max (id + 1) !n_counters) 0 in
  Array.blit s.counts 0 a 0 (Array.length s.counts);
  a.(id) <- n;
  s.counts <- a

let incr ?(n = 1) c =
  let s = Domain.DLS.get shard_key in
  let a = s.counts in
  if c.id < Array.length a then a.(c.id) <- a.(c.id) + n
  else grow s c.id n

let shard_count s id = if id < Array.length s.counts then s.counts.(id) else 0

let merged_count id =
  List.fold_left
    (fun acc s -> acc + shard_count s id)
    (shard_count retired id) !live_shards

let count c = locked (fun () -> merged_count c.id)
let count_local c = shard_count (Domain.DLS.get shard_key) c.id
let set g v = g.g_value <- v
let set_max g v = if v > g.g_value then g.g_value <- v

let observe h v =
  let nb = Array.length h.h_bounds in
  let rec slot i = if i >= nb || v <= h.h_bounds.(i) then i else slot (i + 1) in
  h.h_counts.(slot 0) <- h.h_counts.(slot 0) + 1;
  h.h_sum <- h.h_sum + v;
  h.h_total <- h.h_total + 1

let snapshot () =
  locked (fun () -> Hashtbl.fold
    (fun name i acc ->
      let v =
        match i with
        | C c -> Counter (merged_count c.id)
        | G g -> Gauge g.g_value
        | H h ->
            Histogram
              {
                bounds = Array.copy h.h_bounds;
                counts = Array.copy h.h_counts;
                sum = h.h_sum;
                total = h.h_total;
              }
      in
      (name, v) :: acc)
    registry [])
  |> List.sort compare

let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ i ->
          match i with
          | C _ -> ()
          | G g -> g.g_value <- 0.0
          | H h ->
              Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
              h.h_sum <- 0;
              h.h_total <- 0)
        registry;
      List.iter
        (fun s -> Array.fill s.counts 0 (Array.length s.counts) 0)
        (retired :: !live_shards))

(* Prometheus-style estimate: locate the bucket containing the q-th
   observation in the cumulative distribution and interpolate linearly
   inside it (the overflow bucket has no upper edge, so its answers clamp
   to the last finite bound).  Exact when a bucket holds one distinct
   value; otherwise within one bucket width. *)
let histogram_quantile v q =
  match v with
  | Counter _ | Gauge _ -> None
  | Histogram { bounds; counts; total; _ } ->
      if total = 0 then None
      else begin
        let q = Float.max 0.0 (Float.min 1.0 q) in
        let rank = q *. float_of_int total in
        let nb = Array.length bounds in
        let rec locate i cum =
          if i > nb then Some (float_of_int bounds.(nb - 1))
          else
            let cum' = cum + counts.(i) in
            if float_of_int cum' >= rank && counts.(i) > 0 then
              if i >= nb then Some (float_of_int bounds.(nb - 1))
              else
                let hi = float_of_int bounds.(i) in
                let lo = if i = 0 then 0.0 else float_of_int bounds.(i - 1) in
                let inside =
                  (rank -. float_of_int cum) /. float_of_int counts.(i)
                in
                Some (lo +. ((hi -. lo) *. Float.max 0.0 (Float.min 1.0 inside)))
            else locate (i + 1) cum'
        in
        locate 0 0
      end

let nonzero = function
  | Counter 0 -> false
  | Counter _ -> true
  | Gauge g -> g <> 0.0
  | Histogram { total; _ } -> total > 0

let pp_summary ppf () =
  let items = List.filter (fun (_, v) -> nonzero v) (snapshot ()) in
  let width =
    List.fold_left (fun acc (n, _) -> max acc (String.length n)) 6 items
  in
  Format.fprintf ppf "@[<v>%-*s  value@,%s@," width "metric"
    (String.make (width + 7) '-');
  List.iter
    (fun (name, v) ->
      match v with
      | Counter c -> Format.fprintf ppf "%-*s  %d@," width name c
      | Gauge g -> Format.fprintf ppf "%-*s  %g@," width name g
      | Histogram { bounds; counts; sum; total } ->
          let buckets =
            String.concat " "
              (List.mapi
                 (fun i c ->
                   let le =
                     if i < Array.length bounds then
                       string_of_int bounds.(i)
                     else "inf"
                   in
                   Printf.sprintf "<=%s:%d" le c)
                 (Array.to_list counts))
          in
          Format.fprintf ppf "%-*s  n=%d sum=%d [%s]@," width name total sum
            buckets)
    items;
  Format.fprintf ppf "@]"
