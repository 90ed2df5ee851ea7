(* Every instrument is a slot in per-domain shards (below), not a cell
   of its own: every domain updates only its own shard, so concurrent
   updates are never lost and a domain can read back exactly its own
   share.  A read merges the shards: counters and histograms add up, a
   gauge takes the largest value any domain wrote — exact for a peak
   ([set_max]), and for a level ([set]) that one domain owns. *)
type counter = { id : int }
type gauge = { g_id : int }
type histogram = { h_id : int; h_bounds : int array }

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
   hot-path updates ([incr]/[set]/[observe]) stay lock-free. *)
let registry_lock = Mutex.create ()

let locked f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

(* ---- per-domain shards ---- *)

type shard = {
  mutable counts : int array;  (* indexed by counter id *)
  mutable gauges : float array;
      (* indexed by gauge id; [nan] = never written on this domain *)
  mutable hists : int array array;
      (* indexed by histogram id: the bucket counts, then the sum and the
         total; [[||]] = nothing observed on this domain *)
}

let n_counters = ref 0
let n_gauges = ref 0
let n_hists = ref 0
let new_shard () = { counts = [||]; gauges = [||]; hists = [||] }

(* Shards of running domains, and the merge of every exited domain's
   shard: a read merges both, so a domain's values outlive it.  Both are
   only touched under [registry_lock], and a shard moves from one to the
   other in a single locked step, so a read never counts it twice or not
   at all. *)
let live_shards : shard list ref = ref []
let retired = new_shard ()

let merge_gauge a b = if Float.is_nan a || b > a then b else a

let merge_into dst src =
  let widen a n fill =
    if Array.length a >= n then a
    else begin
      let a' = Array.make n fill in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    end
  in
  dst.counts <- widen dst.counts (Array.length src.counts) 0;
  Array.iteri (fun i v -> dst.counts.(i) <- dst.counts.(i) + v) src.counts;
  dst.gauges <- widen dst.gauges (Array.length src.gauges) Float.nan;
  Array.iteri
    (fun i v -> dst.gauges.(i) <- merge_gauge dst.gauges.(i) v)
    src.gauges;
  dst.hists <- widen dst.hists (Array.length src.hists) [||];
  Array.iteri
    (fun i cells ->
      if Array.length dst.hists.(i) = 0 then dst.hists.(i) <- Array.copy cells
      else
        Array.iteri
          (fun j v -> dst.hists.(i).(j) <- dst.hists.(i).(j) + v)
          cells)
    src.hists

let shard_key =
  Domain.DLS.new_key (fun () ->
      let s = new_shard () in
      locked (fun () -> live_shards := s :: !live_shards);
      Domain.at_exit (fun () ->
          locked (fun () ->
              merge_into retired s;
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
    (fun () ->
      let g_id = !n_gauges in
      incr n_gauges;
      G { g_id })
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
      let h_id = !n_hists in
      incr n_hists;
      H { h_id; h_bounds = Array.copy buckets })
    (function
      | H h ->
          if h.h_bounds <> buckets then
            invalid_arg
              ("Metrics.histogram: " ^ name
             ^ " already registered with different buckets");
          h
      | C _ | G _ ->
          invalid_arg ("Metrics.histogram: " ^ name ^ " is not a histogram"))

(* Only the owning domain ever writes its shard, so growing it (an
   instrument registered after the shard was made) is a plain copy; a
   concurrent reader may still see the old array, i.e. a slightly stale
   value. *)
let grow a id fill =
  let a' = Array.make (max (id + 1) (Array.length a * 2)) fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let incr ?(n = 1) c =
  let s = Domain.DLS.get shard_key in
  if c.id >= Array.length s.counts then s.counts <- grow s.counts c.id 0;
  s.counts.(c.id) <- s.counts.(c.id) + n

let shard_count s id = if id < Array.length s.counts then s.counts.(id) else 0

let merged_count id =
  List.fold_left
    (fun acc s -> acc + shard_count s id)
    (shard_count retired id) !live_shards

let count c = locked (fun () -> merged_count c.id)
let count_local c = shard_count (Domain.DLS.get shard_key) c.id

let gauge_cells g =
  let s = Domain.DLS.get shard_key in
  if g.g_id >= Array.length s.gauges then
    s.gauges <- grow s.gauges g.g_id Float.nan;
  s.gauges

let set g v = (gauge_cells g).(g.g_id) <- v

(* A gauge no domain wrote reads 0, so that is also the floor a first
   [set_max] on a domain raises from. *)
let set_max g v =
  let a = gauge_cells g in
  let cur = a.(g.g_id) in
  if v > (if Float.is_nan cur then 0.0 else cur) then a.(g.g_id) <- v

let observe h v =
  let s = Domain.DLS.get shard_key in
  if h.h_id >= Array.length s.hists then s.hists <- grow s.hists h.h_id [||];
  let nb = Array.length h.h_bounds in
  if Array.length s.hists.(h.h_id) = 0 then
    s.hists.(h.h_id) <- Array.make (nb + 3) 0;
  let cells = s.hists.(h.h_id) in
  let rec slot i = if i >= nb || v <= h.h_bounds.(i) then i else slot (i + 1) in
  let i = slot 0 in
  cells.(i) <- cells.(i) + 1;
  cells.(nb + 1) <- cells.(nb + 1) + v;
  cells.(nb + 2) <- cells.(nb + 2) + 1

let merged_gauge id =
  let read s =
    if id < Array.length s.gauges then s.gauges.(id) else Float.nan
  in
  let v =
    List.fold_left (fun acc s -> merge_gauge acc (read s)) (read retired)
      !live_shards
  in
  if Float.is_nan v then 0.0 else v

let merged_histogram h =
  let nb = Array.length h.h_bounds in
  let cells = Array.make (nb + 3) 0 in
  List.iter
    (fun s ->
      if h.h_id < Array.length s.hists then
        Array.iteri (fun j v -> cells.(j) <- cells.(j) + v) s.hists.(h.h_id))
    (retired :: !live_shards);
  Histogram
    {
      bounds = Array.copy h.h_bounds;
      counts = Array.sub cells 0 (nb + 1);
      sum = cells.(nb + 1);
      total = cells.(nb + 2);
    }

let snapshot () =
  locked (fun () -> Hashtbl.fold
    (fun name i acc ->
      let v =
        match i with
        | C c -> Counter (merged_count c.id)
        | G g -> Gauge (merged_gauge g.g_id)
        | H h -> merged_histogram h
      in
      (name, v) :: acc)
    registry [])
  |> List.sort compare

let reset () =
  locked (fun () ->
      List.iter
        (fun s ->
          Array.fill s.counts 0 (Array.length s.counts) 0;
          Array.fill s.gauges 0 (Array.length s.gauges) Float.nan;
          Array.iter (fun a -> Array.fill a 0 (Array.length a) 0) s.hists)
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
