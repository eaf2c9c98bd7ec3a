(* Two-phase parallel optimization (Section 7.1, XPRS [31,32] and Hasan
   [28]).

   Phase 1 produced a single-site physical plan (any of our optimizers).
   Phase 2 decomposes it into pipelined segments separated by blocking
   operators (sort, hash build, materialize, aggregation), derives each
   segment's work, degree-of-parallelism cap, and the *partitioning* of the
   stream it produces (a physical property, after Hasan), then schedules
   segments wave by wave over [processors].

   Communication: a join input not already partitioned on the join key must
   be repartitioned — cost proportional to the rows moved.
   [partition_aware = false] reproduces XPRS's phase 2, which ignores
   partitioning reuse (every join repartitions both inputs); [true]
   reproduces Hasan's improvement, treating the partitioning attribute as a
   physical property and reusing compatible upstream partitioning. *)

open Relalg

type partitioning =
  | Any (* round-robin / unknown *)
  | On of Expr.col_ref list (* hash-partitioned on these columns *)

type segment = {
  id : int;
  ops : string list; (* operator names, for display *)
  work : float;
  max_dop : float; (* parallelizability cap (e.g. pages of its scans) *)
  comm_rows : float; (* rows repartitioned to feed this segment *)
  deps : int list; (* blocking predecessors *)
  produces : partitioning;
}

type schedule = {
  segments : segment list;
  response_time : float;
  total_work : float;
  comm_cost : float;
}

type config = {
  params : Cost.Cost_model.params;
  processors : int;
  partition_aware : bool;
  comm_cost_per_row : float;
}

let default_config =
  { params = Cost.Cost_model.default_params;
    processors = 8;
    partition_aware = true;
    comm_cost_per_row = 0.002 }

let cols_equal (a : Expr.col_ref list) (b : Expr.col_ref list) =
  List.length a = List.length b && List.for_all2 (fun x y -> x = y) a b

let compatible have want =
  match have, want with
  | On h, On w -> cols_equal h w
  | (Any | On _), _ -> false

(* ------------------------------------------------------------------ *)
(* Segment extraction *)

type builder = {
  mutable segs : segment list;
  mutable next : int;
  (* plan node -> id of the segment it executes in (physical identity) *)
  mutable assign : (Exec.Plan.t * int) list;
  mutable next_node : int; (* preorder id of the next node [walk] enters *)
  cat : Storage.Catalog.t;
  own_work : int -> float; (* own work of the node with this preorder id *)
  out_rows : int -> float; (* its estimated output rows *)
  partition_aware : bool;
}

let new_seg b ~ops ~work ~max_dop ~comm_rows ~deps ~produces =
  let s = { id = b.next; ops; work; max_dop; comm_rows; deps; produces } in
  b.next <- b.next + 1;
  b.segs <- b.segs @ [ s ];
  s

(* The pipelined segment currently being assembled bottom-up. *)
type open_seg = {
  o_ops : string list;
  o_work : float;
  o_dop : float;
  o_deps : int list;
  o_comm : float; (* rows repartitioned within this open segment *)
  o_part : partitioning;
  o_nodes : Exec.Plan.t list; (* plan nodes executing in this segment *)
}

let close b (o : open_seg) : segment =
  let s =
    new_seg b ~ops:o.o_ops ~work:o.o_work ~max_dop:o.o_dop ~comm_rows:o.o_comm
      ~deps:o.o_deps ~produces:o.o_part
  in
  List.iter (fun n -> b.assign <- (n, s.id) :: b.assign) o.o_nodes;
  s

(* Children are walked in [Exec.Plan.children] order, so [next_node]
   tracks each node's preorder id and every node adds its own work to
   exactly one segment. *)
let rec walk (b : builder) (p : Exec.Plan.t) : open_seg =
  let id = b.next_node in
  b.next_node <- id + 1;
  let work = b.own_work id in
  let unary name i =
    let o = walk b i in
    { o with o_ops = o.o_ops @ [ name ]; o_work = o.o_work +. work;
      o_nodes = o.o_nodes @ [ p ] }
  in
  match p with
  | Exec.Plan.Seq_scan { table; _ } | Exec.Plan.Index_scan { table; _ } ->
    let pages =
      float_of_int (Storage.Table.page_count (Storage.Catalog.table b.cat table))
    in
    { o_ops = [ "scan " ^ table ]; o_work = work;
      o_dop = Float.max 1. pages; o_deps = []; o_comm = 0.; o_part = Any;
      o_nodes = [ p ] }
  | Exec.Plan.Filter (_, i) -> unary "filter" i
  | Exec.Plan.Project (_, i) -> unary "project" i
  | Exec.Plan.Hash_distinct i -> unary "distinct" i
  | Exec.Plan.Sort (_, i) | Exec.Plan.Materialize i ->
    (* blocking: close the child's pipeline *)
    let closed = close b (walk b i) in
    let name = match p with Exec.Plan.Sort _ -> "sort" | _ -> "materialize" in
    { o_ops = [ name ]; o_work = work;
      o_dop = closed.max_dop; o_deps = [ closed.id ]; o_comm = 0.;
      o_part = closed.produces; o_nodes = [ p ] }
  | Exec.Plan.Hash_agg { input; keys; _ } | Exec.Plan.Stream_agg { input; keys; _ }
    ->
    let closed = close b (walk b input) in
    let part =
      On
        (List.filter_map
           (fun (ke, _) -> match ke with Expr.Col c -> Some c | _ -> None)
           keys)
    in
    { o_ops = [ "aggregate" ]; o_work = work;
      o_dop = closed.max_dop; o_deps = [ closed.id ]; o_comm = 0.;
      o_part = part; o_nodes = [ p ] }
  | Exec.Plan.Nested_loop { outer; inner; _ } ->
    let o = walk b outer in
    let inner_seg = close b (walk b inner) in
    { o_ops = o.o_ops @ [ "nested-loop join" ];
      o_work = o.o_work +. work;
      o_dop = o.o_dop;
      o_deps = o.o_deps @ [ inner_seg.id ];
      o_comm = o.o_comm;
      o_part = o.o_part;
      o_nodes = o.o_nodes @ [ p ] }
  | Exec.Plan.Index_nl { outer; _ } ->
    let o = walk b outer in
    { o with
      o_ops = o.o_ops @ [ "index-nl join" ];
      o_work = o.o_work +. work;
      o_nodes = o.o_nodes @ [ p ] }
  | Exec.Plan.Merge_join { pairs; left; right; _ }
  | Exec.Plan.Hash_join { pairs; left; right; _ } ->
    let want_l = On (List.map fst pairs) and want_r = On (List.map snd pairs) in
    let lo = walk b left in
    let right_id = b.next_node in
    let ro = walk b right in
    let comm_of have want rows =
      if b.partition_aware && compatible have want then 0. else rows
    in
    (* build/right side blocks; probe/left side pipelines into the join *)
    let right_seg =
      close b
        { ro with
          o_ops = ro.o_ops @ [ "build" ];
          o_comm = ro.o_comm +. comm_of ro.o_part want_r (b.out_rows right_id);
          o_part = want_r }
    in
    let name =
      match p with Exec.Plan.Merge_join _ -> "merge join" | _ -> "hash join"
    in
    { o_ops = lo.o_ops @ [ name ];
      o_work = lo.o_work +. work;
      o_dop = Float.max lo.o_dop 1.;
      o_deps = lo.o_deps @ [ right_seg.id ];
      o_comm = lo.o_comm +. comm_of lo.o_part want_l (b.out_rows (id + 1));
      o_part = want_l;
      o_nodes = lo.o_nodes @ [ p ] }

let decompose_assign (cfg : config) cat ~own_work ~out_rows
    (plan : Exec.Plan.t) : segment list * (Exec.Plan.t * int) list =
  let b =
    { segs = []; next = 0; assign = []; next_node = 0; cat; own_work;
      out_rows; partition_aware = cfg.partition_aware }
  in
  let top = walk b plan in
  ignore (close b top);
  (b.segs, b.assign)

(* One estimate pass per plan; segments sum their nodes' own work. *)
let decompose (cfg : config) cat db (plan : Exec.Plan.t) : segment list =
  let est = Obs.Est.annotate ~params:cfg.params cat db plan in
  fst
    (decompose_assign cfg cat
       ~own_work:(fun i -> est.(i).Obs.Est.work)
       ~out_rows:(fun i -> est.(i).Obs.Est.rows)
       plan)

(* The degree of parallelism each plan node actually runs at: its
   segment's cap, clamped to the processor budget — the same dop the
   wave scheduler charges that segment with.  Caps depend only on scan
   page counts, so no estimates are derived.  Nodes the decomposition
   does not reach (none today) default to the full budget. *)
let node_dop (cfg : config) cat (plan : Exec.Plan.t) : Exec.Plan.t -> int =
  let segs, assign =
    decompose_assign cfg cat ~own_work:(fun _ -> 0.) ~out_rows:(fun _ -> 0.)
      plan
  in
  let budget = max 1 cfg.processors in
  let seg_dop =
    List.map
      (fun s ->
         (s.id, min budget (max 1 (int_of_float (Float.ceil s.max_dop)))))
      segs
  in
  fun node ->
    let rec go = function
      | [] -> budget
      | (n, sid) :: rest ->
        if n == node then
          match List.assoc_opt sid seg_dop with
          | Some d -> d
          | None -> budget
        else go rest
    in
    go assign

(* ------------------------------------------------------------------ *)
(* Phase-2 scheduling: topological waves of malleable tasks *)

let schedule_segments (cfg : config) (segs : segment list) : schedule =
  let p = float_of_int (max 1 cfg.processors) in
  let total_work = List.fold_left (fun a s -> a +. s.work) 0. segs in
  let comm_rate = cfg.comm_cost_per_row in
  let comm_cost =
    List.fold_left (fun a s -> a +. (s.comm_rows *. comm_rate)) 0. segs
  in
  let done_ = Hashtbl.create 16 in
  let remaining = ref segs in
  let t = ref 0. in
  while !remaining <> [] do
    let ready, blocked =
      List.partition
        (fun s -> List.for_all (Hashtbl.mem done_) s.deps)
        !remaining
    in
    if ready = [] then begin
      (* cannot happen: segments form a DAG by construction *)
      List.iter (fun s -> Hashtbl.replace done_ s.id ()) blocked;
      remaining := []
    end
    else begin
      (* malleable-task wave: time = max(total/p, longest segment at its
         own parallelism cap) *)
      let seg_comm s = s.comm_rows *. comm_rate in
      let wave_work =
        List.fold_left (fun a s -> a +. s.work +. seg_comm s) 0. ready
      in
      let longest =
        List.fold_left
          (fun a s ->
             Float.max a
               (((s.work +. seg_comm s)
                 /. Float.min p (Float.max 1. s.max_dop))))
          0. ready
      in
      t := !t +. Float.max (wave_work /. p) longest;
      List.iter (fun s -> Hashtbl.replace done_ s.id ()) ready;
      remaining := blocked
    end
  done;
  { segments = segs; response_time = !t; total_work; comm_cost }

let run ?(config = default_config) cat db (plan : Exec.Plan.t) : schedule =
  schedule_segments config (decompose config cat db plan)

let pp_schedule ppf (s : schedule) =
  Fmt.pf ppf "@[<v>%d segments, work %.1f, comm %.1f, response %.2f@,%a@]"
    (List.length s.segments) s.total_work s.comm_cost s.response_time
    Fmt.(list ~sep:cut (fun ppf seg ->
        Fmt.pf ppf "  seg%d [%s] work=%.1f dop<=%.0f deps=%a comm=%.0f"
          seg.id (String.concat " -> " seg.ops) seg.work seg.max_dop
          Fmt.(list ~sep:(any ",") int) seg.deps seg.comm_rows))
    s.segments
