module C = Sn_circuit

exception Unknown_node of { node : string; candidates : string list }
exception Unknown_branch of { name : string; candidates : string list }

let () =
  Printexc.register_printer (function
    | Unknown_node { node; candidates } ->
      Some
        (Printf.sprintf "Mna.Unknown_node(%S, did you mean: %s)" node
           (String.concat ", " candidates))
    | Unknown_branch { name; candidates } ->
      Some
        (Printf.sprintf "Mna.Unknown_branch(%S, voltage-defined elements: %s)"
           name
           (String.concat ", " candidates))
    | _ -> None)

(* Edit distance for "did you mean" suggestions on a missing node or
   branch.  Lookup failures are cold paths, so the O(|a| |b|) dynamic
   program per candidate is fine. *)
let edit_distance a b =
  let la = String.length a and lb = String.length b in
  let row = Array.init (lb + 1) Fun.id in
  for i = 1 to la do
    let prev_diag = ref row.(0) in
    row.(0) <- i;
    for j = 1 to lb do
      let d = !prev_diag in
      prev_diag := row.(j);
      row.(j) <-
        min
          (min (row.(j) + 1) (row.(j - 1) + 1))
          (d + if a.[i - 1] = b.[j - 1] then 0 else 1)
    done
  done;
  row.(lb)

let closest ?(limit = 5) name candidates =
  candidates
  |> List.map (fun c -> (edit_distance name c, c))
  |> List.sort compare
  |> List.filteri (fun i _ -> i < limit)
  |> List.map snd

type t = {
  netlist : C.Netlist.t;
  node_table : (string, int) Hashtbl.t;
  branch_table : (string, int) Hashtbl.t;
  node_names : string array;
  branch_names : string array;  (* index i names branch slot n_nodes + i *)
  n_nodes : int;
  n_branches : int;
}

let needs_branch = function
  | C.Element.Vsource _ | C.Element.Vcvs _ | C.Element.Inductor _ -> true
  | C.Element.Resistor _ | C.Element.Capacitor _ | C.Element.Isource _
  | C.Element.Vccs _ | C.Element.Mosfet _ | C.Element.Varactor _ ->
    false

let build netlist =
  let nodes = C.Netlist.nodes netlist in
  let node_table = Hashtbl.create 64 in
  List.iteri (fun i n -> Hashtbl.replace node_table n i) nodes;
  let n_nodes = List.length nodes in
  let branch_table = Hashtbl.create 16 in
  let n_branches = ref 0 in
  let branch_names = ref [] in
  List.iter
    (fun e ->
      if needs_branch e then begin
        Hashtbl.replace branch_table (C.Element.name e) (n_nodes + !n_branches);
        branch_names := C.Element.name e :: !branch_names;
        incr n_branches
      end)
    (C.Netlist.elements netlist);
  {
    netlist;
    node_table;
    branch_table;
    node_names = Array.of_list nodes;
    branch_names = Array.of_list (List.rev !branch_names);
    n_nodes;
    n_branches = !n_branches;
  }

let netlist m = m.netlist
let n_nodes m = m.n_nodes
let n_branches m = m.n_branches
let dim m = m.n_nodes + m.n_branches

let node_slot m name =
  if C.Element.is_ground name then -1
  else
    match Hashtbl.find_opt m.node_table name with
    | Some i -> i
    | None ->
      raise
        (Unknown_node
           { node = name;
             candidates = closest name (Array.to_list m.node_names) })

let branch_slot m name =
  match Hashtbl.find_opt m.branch_table name with
  | Some i -> i
  | None ->
    raise
      (Unknown_branch
         { name;
           candidates =
             closest name
               (Hashtbl.fold (fun k _ acc -> k :: acc) m.branch_table []
               |> List.sort String.compare) })

let node_names m = m.node_names

let slot_name m i =
  if i >= 0 && i < m.n_nodes then Some m.node_names.(i)
  else if i >= m.n_nodes && i < m.n_nodes + m.n_branches then
    Some m.branch_names.(i - m.n_nodes)
  else None
