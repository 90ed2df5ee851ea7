type flow = Ch3 | Ch4_unidir | Ch4_bidir | Ch5 | Ch6

let all_flows = [ Ch3; Ch4_unidir; Ch4_bidir; Ch5; Ch6 ]

let flow_to_string = function
  | Ch3 -> "ch3"
  | Ch4_unidir -> "ch4-unidir"
  | Ch4_bidir -> "ch4-bidir"
  | Ch5 -> "ch5"
  | Ch6 -> "ch6"

let flow_of_string = function
  | "ch3" -> Ok Ch3
  | "ch4-unidir" -> Ok Ch4_unidir
  | "ch4-bidir" -> Ok Ch4_bidir
  | "ch5" -> Ok Ch5
  | "ch6" -> Ok Ch6
  | s ->
      Error
        (Printf.sprintf
           "unknown flow %S (ch3|ch4-unidir|ch4-bidir|ch5|ch6)" s)

type design_spec =
  | Named of string
  | Random of { seed : int; n_partitions : int; n_ops : int }
  | Random_simple of { seed : int; n_partitions : int; ops_per_chip : int }

type t = {
  design : design_spec;
  flow : flow;
  rate : int;
  pipe_length : int option;
  refine : int;
}

let name_ok s =
  s <> ""
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true
         | _ -> false)
       s

let make ?pipe_length ?(refine = 0) ~design ~flow ~rate () =
  if rate < 1 then invalid_arg "Job.make: rate must be positive";
  if refine < 0 then invalid_arg "Job.make: refine cap must be >= 0";
  (match pipe_length with
  | Some pl when pl < 1 -> invalid_arg "Job.make: pipe length must be positive"
  | _ -> ());
  (match design with
  | Named s when not (name_ok s) ->
      invalid_arg
        (Printf.sprintf "Job.make: bad design name %S (want [A-Za-z0-9_-]+)" s)
  | _ -> ());
  let pipe_length = match flow with Ch5 -> pipe_length | _ -> None in
  { design; flow; rate; pipe_length; refine }

let design_to_string = function
  | Named s -> s
  | Random { seed; n_partitions; n_ops } ->
      Printf.sprintf "random:%d:%d:%d" seed n_partitions n_ops
  | Random_simple { seed; n_partitions; ops_per_chip } ->
      Printf.sprintf "rsimple:%d:%d:%d" seed n_partitions ops_per_chip

let design_of_string s =
  let ints3 body =
    match String.split_on_char ':' body with
    | [ a; b; c ] -> (
        match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c)
        with
        | Some a, Some b, Some c when b > 0 && c > 0 -> Ok (a, b, c)
        | _ -> Error (Printf.sprintf "bad random-design parameters %S" body))
    | _ -> Error (Printf.sprintf "bad random-design parameters %S" body)
  in
  match String.index_opt s ':' with
  | None ->
      if name_ok s then Ok (Named s)
      else Error (Printf.sprintf "bad design name %S" s)
  | Some i -> (
      let kind = String.sub s 0 i in
      let body = String.sub s (i + 1) (String.length s - i - 1) in
      match kind with
      | "random" ->
          Result.map
            (fun (seed, n_partitions, n_ops) ->
              Random { seed; n_partitions; n_ops })
            (ints3 body)
      | "rsimple" ->
          Result.map
            (fun (seed, n_partitions, ops_per_chip) ->
              Random_simple { seed; n_partitions; ops_per_chip })
            (ints3 body)
      | k -> Error (Printf.sprintf "unknown design kind %S" k))

let magic = "mcs-job/1"

(* [refine] is appended only when nonzero, so every pre-refinement
   encoding (and its cache address) stays byte-identical. *)
let to_string j =
  Printf.sprintf "%s|%s|%s|r%d|pl%s%s" magic
    (design_to_string j.design)
    (flow_to_string j.flow) j.rate
    (match j.pipe_length with Some pl -> string_of_int pl | None -> "-")
    (if j.refine > 0 then Printf.sprintf "|ref%d" j.refine else "")

let ( let* ) = Result.bind

let of_string s =
  let parse_refine = function
    | None -> Ok 0
    | Some rf when String.length rf > 3 && String.sub rf 0 3 = "ref" -> (
        match int_of_string_opt (String.sub rf 3 (String.length rf - 3)) with
        | Some n when n > 0 -> Ok n
        | _ -> Error (Printf.sprintf "bad refine field %S" rf))
    | Some rf -> Error (Printf.sprintf "bad refine field %S" rf)
  in
  let fields =
    match String.split_on_char '|' s with
    | [ m; d; f; r; pl ] -> Some (m, d, f, r, pl, None)
    | [ m; d; f; r; pl; rf ] -> Some (m, d, f, r, pl, Some rf)
    | _ -> None
  in
  match fields with
  | Some (m, d, f, r, pl, rf) when m = magic ->
      let* design = design_of_string d in
      let* flow = flow_of_string f in
      let* rate =
        if String.length r > 1 && r.[0] = 'r' then
          match int_of_string_opt (String.sub r 1 (String.length r - 1)) with
          | Some n when n > 0 -> Ok n
          | _ -> Error (Printf.sprintf "bad rate field %S" r)
        else Error (Printf.sprintf "bad rate field %S" r)
      in
      let* pipe_length =
        if String.length pl > 2 && String.sub pl 0 2 = "pl" then
          match String.sub pl 2 (String.length pl - 2) with
          | "-" -> Ok None
          | n -> (
              match int_of_string_opt n with
              | Some n when n > 0 -> Ok (Some n)
              | _ -> Error (Printf.sprintf "bad pipe-length field %S" pl))
        else Error (Printf.sprintf "bad pipe-length field %S" pl)
      in
      let* refine = parse_refine rf in
      if pipe_length <> None && flow <> Ch5 then
        Error "pipe length is only valid for the ch5 flow"
      else Ok { design; flow; rate; pipe_length; refine }
  | _ -> Error (Printf.sprintf "not a %s encoding: %S" magic s)

let equal a b = to_string a = to_string b

let hash j =
  String.sub (Digest.to_hex (Digest.string (to_string j))) 0 12

let pp ppf j =
  Format.fprintf ppf "%s %s r%d%s%s"
    (design_to_string j.design)
    (flow_to_string j.flow) j.rate
    (match j.pipe_length with
    | Some pl -> Printf.sprintf " pl%d" pl
    | None -> "")
    (if j.refine > 0 then Printf.sprintf " ref%d" j.refine else "")

let grid ~designs ~flows ~rates ?(pipe_lengths = []) ?(refine = 0) () =
  List.concat_map
    (fun design ->
      List.concat_map
        (fun flow ->
          List.concat_map
            (fun rate ->
              match flow with
              | Ch5 when pipe_lengths <> [] ->
                  List.map
                    (fun pl -> make ~pipe_length:pl ~refine ~design ~flow ~rate ())
                    pipe_lengths
              | _ -> [ make ~refine ~design ~flow ~rate () ])
            rates)
        flows)
    designs

open Mcs_cdfg

let named_designs =
  [
    ("ar-simple", Benchmarks.ar_simple);
    ("ar-general", Benchmarks.ar_general);
    ("elliptic", Benchmarks.elliptic);
    ("cond-demo", Benchmarks.cond_demo);
    ("subbus-demo", Benchmarks.subbus_demo);
  ]

(* Generous budgets: the random specs exist for determinism and isolation
   properties, so feasibility should hinge on the scheduler, not on a pin
   budget the generator cannot see. *)
let random_budgets ~n_partitions =
  List.map
    (fun p -> (p, if p = 0 then 4096 else 512))
    (Mcs_util.Listx.range 0 (n_partitions + 1))

let resolve = function
  | Named s -> (
      match List.assoc_opt s named_designs with
      | Some mk -> Ok (mk ())
      | None ->
          Error
            (Printf.sprintf "unknown design %S (known: %s)" s
               (String.concat ", " (List.map fst named_designs))))
  | Random { seed; n_partitions; n_ops } ->
      let cdfg = Random_design.generate ~seed ~n_partitions ~n_ops () in
      let pins = random_budgets ~n_partitions in
      Ok
        {
          Benchmarks.tag = Printf.sprintf "random:%d:%d:%d" seed n_partitions n_ops;
          cdfg;
          mlib = Random_design.mlib ();
          pins_unidir = pins;
          pins_bidir = pins;
          rates = [ 4 ];
          fu_extra = [];
        }
  | Random_simple { seed; n_partitions; ops_per_chip } ->
      let cdfg = Random_design.generate_simple ~seed ~n_partitions ~ops_per_chip () in
      let pins = random_budgets ~n_partitions in
      Ok
        {
          Benchmarks.tag =
            Printf.sprintf "rsimple:%d:%d:%d" seed n_partitions ops_per_chip;
          cdfg;
          mlib = Random_design.mlib ();
          pins_unidir = pins;
          pins_bidir = pins;
          rates = [ 4 ];
          fu_extra = [];
        }
