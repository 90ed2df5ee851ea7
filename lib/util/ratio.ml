type t = { num : int; den : int }

exception Overflow
exception Division_by_zero

(* Overflow-checked primitives.  The tableaus we manipulate are small and
   their entries stay far from 2^62, but a silent wraparound would corrupt a
   pivot invisibly, so every arithmetic step is checked. *)

let add_exact a b =
  let r = a + b in
  if (a >= 0) = (b >= 0) && (r >= 0) <> (a >= 0) then raise Overflow;
  r

let mul_exact a b =
  if a = 0 || b = 0 then 0
  else
    let r = a * b in
    if r / b <> a then raise Overflow;
    r

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* The reduction counter is the single hottest metric in the system (one
   potential increment per rational operation inside every pivot).  It
   is a plain sharded counter: each domain bumps its own shard, so
   domains solving side by side never contend for one cell. *)
let m_reductions = Mcs_obs.Metrics.counter "ratio.reductions"
let count_reduction () = Mcs_obs.Metrics.incr m_reductions

let zero = { num = 0; den = 1 }
let one = { num = 1; den = 1 }
let minus_one = { num = -1; den = 1 }

let make num den =
  if den = 0 then raise Division_by_zero;
  if num = 0 then zero
  else if den = 1 then { num; den = 1 }
  else begin
    count_reduction ();
    let s = if den < 0 then -1 else 1 in
    let g = gcd (abs num) (abs den) in
    { num = s * num / g; den = s * den / g }
  end

let of_int n = { num = n; den = 1 }
let num t = t.num
let den t = t.den

(* Addition follows Knuth 4.5.1: when the denominators are equal, coprime,
   or one is 1, the result is either one small gcd away from — or provably
   already in — lowest terms, so the general normalizing [make] (and its
   larger intermediate products) is skipped on every hot-path shape. *)
let add a b =
  if a.den = b.den then begin
    if a.den = 1 then { num = add_exact a.num b.num; den = 1 }
    else begin
      let s = add_exact a.num b.num in
      if s = 0 then zero
      else begin
        count_reduction ();
        let g = gcd (abs s) a.den in
        { num = s / g; den = a.den / g }
      end
    end
  end
  else if a.den = 1 then
    (* gcd (a.num * b.den + b.num, b.den) = gcd (b.num, b.den) = 1 *)
    { num = add_exact (mul_exact a.num b.den) b.num; den = b.den }
  else if b.den = 1 then
    { num = add_exact a.num (mul_exact b.num a.den); den = a.den }
  else begin
    let d1 = gcd a.den b.den in
    if d1 = 1 then
      (* Coprime denominators: the cross-product sum is provably reduced. *)
      { num = add_exact (mul_exact a.num b.den) (mul_exact b.num a.den);
        den = mul_exact a.den b.den }
    else begin
      (* s = 0 would need a = -b, impossible with distinct denominators. *)
      count_reduction ();
      let s =
        add_exact
          (mul_exact a.num (b.den / d1))
          (mul_exact b.num (a.den / d1))
      in
      let d2 = gcd (abs s) d1 in
      { num = s / d2; den = mul_exact (a.den / d1) (b.den / d2) }
    end
  end

let neg a = { num = -a.num; den = a.den }
let sub a b = add a (neg b)

(* Cross-reduced multiplication: divide out gcd (|a.num|, b.den) and
   gcd (|b.num|, a.den) first, so the products are smaller (fewer spurious
   overflows) and the result is provably in lowest terms. *)
let mul a b =
  if a.num = 0 || b.num = 0 then zero
  else if a.den = 1 && b.den = 1 then { num = mul_exact a.num b.num; den = 1 }
  else begin
    let g1 = gcd (abs a.num) b.den in
    let g2 = gcd (abs b.num) a.den in
    if g1 > 1 || g2 > 1 then count_reduction ();
    { num = mul_exact (a.num / g1) (b.num / g2);
      den = mul_exact (a.den / g2) (b.den / g1) }
  end

(* A reduced rational's inverse is reduced: only the sign needs fixing. *)
let inv a =
  if a.num = 0 then raise Division_by_zero
  else if a.num > 0 then { num = a.den; den = a.num }
  else { num = -a.den; den = -a.num }

let div a b = mul a (inv b)
let abs a = { a with num = Stdlib.abs a.num }
let sign a = compare a.num 0

let compare a b =
  (* Denominators are positive, so cross-multiplication preserves order —
     but equal denominators (the pivot-loop common case) need no products,
     and differing signs decide without any multiplication at all. *)
  if a.den = b.den then Stdlib.compare a.num b.num
  else
    let sa = Stdlib.compare a.num 0 and sb = Stdlib.compare b.num 0 in
    if sa <> sb then Stdlib.compare sa sb
    else Stdlib.compare (mul_exact a.num b.den) (mul_exact b.num a.den)

let equal a b = a.num = b.num && a.den = b.den
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b
let is_zero a = a.num = 0
let is_integer a = a.den = 1

let floor a =
  if a.den = 1 then a.num
  else if a.num >= 0 then a.num / a.den
  else (-(-a.num / a.den)) - (if -a.num mod a.den = 0 then 0 else 1)

let ceil a = -floor (neg a)

let to_int_exn a =
  if a.den <> 1 then invalid_arg "Ratio.to_int_exn: not an integer";
  a.num

let frac a = sub a (of_int (floor a))
let to_float a = float_of_int a.num /. float_of_int a.den

let pp ppf a =
  if a.den = 1 then Format.fprintf ppf "%d" a.num
  else Format.fprintf ppf "%d/%d" a.num a.den

let to_string a = Format.asprintf "%a" pp a

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( ~- ) = neg
  let ( = ) = equal
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
end
