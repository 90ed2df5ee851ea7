open Mcs_cdfg

type t = {
  ops : Types.op_id list;
  width : int array;
  src : int array;
  dst : int array;
  value : int array;
  width_index : int array;
  n_values : int;
  widths : int array;
}

let make cdfg =
  let ops =
    List.sort
      (fun a b ->
        let c = compare (Cdfg.io_width cdfg b) (Cdfg.io_width cdfg a) in
        if c <> 0 then c else compare a b)
      (Cdfg.io_ops cdfg)
  in
  let n = Cdfg.n_ops cdfg in
  let width = Array.make n 0 and value = Array.make n 0 in
  let src = Array.make n 0 and dst = Array.make n 0 in
  let width_index = Array.make n 0 in
  let ids = Hashtbl.create 64 in
  List.iter
    (fun w ->
      let v = Cdfg.io_value cdfg w in
      width.(w) <- Cdfg.io_width cdfg w;
      src.(w) <- Cdfg.io_src cdfg w;
      dst.(w) <- Cdfg.io_dst cdfg w;
      value.(w) <-
        (match Hashtbl.find_opt ids v with
        | Some id -> id
        | None ->
            let id = Hashtbl.length ids in
            Hashtbl.add ids v id;
            id))
    ops;
  let widths =
    Array.of_list (List.sort_uniq compare (List.map (fun w -> width.(w)) ops))
  in
  List.iter
    (fun w ->
      let rec find k = if widths.(k) = width.(w) then k else find (k + 1) in
      width_index.(w) <- find 0)
    ops;
  let n_values = Hashtbl.length ids in
  { ops; width; src; dst; value; width_index; n_values; widths }

type bag = { widths_of : int array; counts : int array; mutable size : int }

let bag t =
  let counts = Array.make (Array.length t.widths) 0 in
  { widths_of = t.widths; counts; size = 0 }

let load b counts =
  Array.blit counts 0 b.counts 0 (Array.length b.counts);
  b.size <- Array.fold_left ( + ) 0 counts

let size b = b.size

let take b k x =
  let last = ref (-1) and k = ref k and i = ref (Array.length b.counts - 1) in
  while !k > 0 && !i >= 0 do
    let c = b.counts.(!i) in
    if c > 0 && b.widths_of.(!i) <= x then begin
      let t = min !k c in
      b.counts.(!i) <- c - t;
      b.size <- b.size - t;
      k := !k - t;
      last := b.widths_of.(!i)
    end;
    decr i
  done;
  !last

let widest b =
  let rec go i =
    if i < 0 then invalid_arg "Io_table.widest: empty bag"
    else if b.counts.(i) > 0 then b.widths_of.(i)
    else go (i - 1)
  in
  go (Array.length b.counts - 1)
