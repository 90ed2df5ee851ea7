let node_id i = Printf.sprintf "n%d" i

let pp ppf cdfg =
  Format.fprintf ppf "digraph cdfg {@.  rankdir=TB;@.  node [fontsize=10];@.";
  (* One cluster per real partition; the outside world floats. *)
  List.iter
    (fun p ->
      Format.fprintf ppf "  subgraph cluster_p%d {@.    label=\"chip %d\";@." p p;
      List.iter
        (fun op ->
          Format.fprintf ppf "    %s [label=\"%s\\n%s\" shape=ellipse];@."
            (node_id op) (Cdfg.name cdfg op) (Cdfg.func_optype cdfg op))
        (Cdfg.func_ops_of_partition cdfg p);
      Format.fprintf ppf "  }@.")
    (Mcs_util.Listx.range 1 (Cdfg.n_partitions cdfg + 1));
  List.iter
    (fun w ->
      Format.fprintf ppf
        "  %s [label=\"%s\\n%d bits\" shape=box style=filled \
         fillcolor=lightgrey];@."
        (node_id w) (Cdfg.name cdfg w) (Cdfg.io_width cdfg w))
    (Cdfg.io_ops cdfg);
  List.iter
    (fun { Types.e_src; e_dst; degree } ->
      if degree = 0 then
        Format.fprintf ppf "  %s -> %s;@." (node_id e_src) (node_id e_dst)
      else
        Format.fprintf ppf
          "  %s -> %s [style=dashed label=\"d=%d\" constraint=false];@."
          (node_id e_src) (node_id e_dst) degree)
    (Cdfg.edges cdfg);
  Format.fprintf ppf "}@."
