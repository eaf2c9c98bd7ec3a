(* Two-phase parallel optimization tests: segment decomposition, speedup
   behaviour, communication-aware partitioning. *)

open Relalg

let star_plan () =
  (* a 3-dim star join plan with hash joins (build = dimensions) *)
  let w = Workload.Schemas.star ~fact_rows:20000 ~dim_rows:50 ~dims:3 () in
  let scan t = Exec.Plan.Seq_scan { table = t; alias = t; filter = None } in
  let jp dim =
    ( { Expr.rel = "Sales"; col = String.lowercase_ascii dim ^ "_id" },
      { Expr.rel = dim; col = "id" } )
  in
  let plan =
    List.fold_left
      (fun acc dim ->
         Exec.Plan.Hash_join
           { kind = Algebra.Inner; pairs = [ jp dim ]; residual = Expr.ftrue;
             left = acc; right = scan dim })
      (scan "Sales") w.Workload.Schemas.dims
  in
  (w, plan)

(* An index nested-loop join of Emp against Dept's did index, feeding a
   hash join and a sort: preorder Sort, Hash_join, Index_nl, Emp, D2. *)
let inl_plan () =
  let w = Workload.Schemas.emp_dept ~emps:2000 ~depts:40 () in
  let cat = w.Workload.Schemas.cat in
  let idx =
    Option.get (Storage.Catalog.index_on cat ~table:"Dept" ~column:"did")
  in
  let plan =
    Exec.Plan.Sort
      ( [ { Exec.Plan.key = Expr.col ~rel:"Emp" ~col:"sal";
            descending = false } ],
        Exec.Plan.Hash_join
          { kind = Algebra.Inner;
            pairs =
              [ ({ Expr.rel = "Dept"; col = "did" },
                 { Expr.rel = "D2"; col = "did" }) ];
            residual = Expr.ftrue;
            left =
              Exec.Plan.Index_nl
                { kind = Algebra.Inner;
                  outer =
                    Exec.Plan.Seq_scan
                      { table = "Emp"; alias = "Emp"; filter = None };
                  table = "Dept"; alias = "Dept";
                  index = idx.Storage.Btree.name; columns = [ "did" ];
                  outer_keys = [ Expr.col ~rel:"Emp" ~col:"did" ];
                  residual = Expr.ftrue };
            right =
              Exec.Plan.Seq_scan { table = "Dept"; alias = "D2"; filter = None }
          } )
  in
  (w, plan)

let sum_work (est : Obs.Est.t) =
  Array.fold_left (fun a n -> a +. n.Obs.Est.work) 0. est

let test_decomposition () =
  let w, plan = star_plan () in
  let segs =
    Parallel.Two_phase.decompose Parallel.Two_phase.default_config
      w.Workload.Schemas.cat w.Workload.Schemas.db plan
  in
  (* 3 build segments + 1 probe pipeline *)
  Alcotest.(check int) "segments" 4 (List.length segs);
  let final = List.nth segs 3 in
  Alcotest.(check int) "probe depends on all builds" 3
    (List.length final.Parallel.Two_phase.deps);
  Alcotest.(check bool) "work positive" true
    (List.for_all (fun s -> s.Parallel.Two_phase.work > 0.) segs)

let test_speedup_monotone_and_saturating () =
  let w, plan = star_plan () in
  let response p =
    (Parallel.Two_phase.run
       ~config:{ Parallel.Two_phase.default_config with processors = p }
       w.Workload.Schemas.cat w.Workload.Schemas.db plan).Parallel.Two_phase.response_time
  in
  let r1 = response 1 and r4 = response 4 and r16 = response 16
  and r256 = response 256 in
  Alcotest.(check bool) "more processors never slower" true
    (r4 <= r1 +. 1e-9 && r16 <= r4 +. 1e-9 && r256 <= r16 +. 1e-9);
  Alcotest.(check bool)
    (Printf.sprintf "speedup at 4: %.2f" (r1 /. r4))
    true (r1 /. r4 > 1.5);
  (* parallelism caps: speedup saturates well below 256x *)
  Alcotest.(check bool)
    (Printf.sprintf "saturates: %.1fx at 256 procs" (r1 /. r256))
    true (r1 /. r256 < 256.)

let test_parallel_increases_total_work_not_response () =
  (* response <= work at 1 processor; with p processors response shrinks
     while total work stays the same (the paper's footnote 5) *)
  let w, plan = star_plan () in
  let s1 =
    Parallel.Two_phase.run
      ~config:{ Parallel.Two_phase.default_config with processors = 1 }
      w.Workload.Schemas.cat w.Workload.Schemas.db plan
  in
  let s8 =
    Parallel.Two_phase.run
      ~config:{ Parallel.Two_phase.default_config with processors = 8 }
      w.Workload.Schemas.cat w.Workload.Schemas.db plan
  in
  Alcotest.(check (float 1e-6)) "same total work"
    s1.Parallel.Two_phase.total_work s8.Parallel.Two_phase.total_work;
  Alcotest.(check bool) "response shrinks" true
    (s8.Parallel.Two_phase.response_time < s1.Parallel.Two_phase.response_time)

let test_partition_awareness_helps () =
  (* chain of hash joins all on the same key: partition-aware phase 2 reuses
     the partitioning; the oblivious one repartitions at every join *)
  let p = Workload.Schemas.join_shape ~rows:5000 ~shape:Workload.Schemas.Star_q ~n:4 () in
  let scan t = Exec.Plan.Seq_scan { table = t; alias = t; filter = None } in
  let pair l r = ({ Expr.rel = l; col = "a" }, { Expr.rel = r; col = "a" }) in
  let plan =
    Exec.Plan.Hash_join
      { kind = Algebra.Inner; pairs = [ pair "R1" "R4" ]; residual = Expr.ftrue;
        left =
          Exec.Plan.Hash_join
            { kind = Algebra.Inner; pairs = [ pair "R1" "R3" ];
              residual = Expr.ftrue;
              left =
                Exec.Plan.Hash_join
                  { kind = Algebra.Inner; pairs = [ pair "R1" "R2" ];
                    residual = Expr.ftrue; left = scan "R1"; right = scan "R2" };
              right = scan "R3" };
        right = scan "R4" }
  in
  let run aware =
    Parallel.Two_phase.run
      ~config:
        { Parallel.Two_phase.default_config with
          partition_aware = aware; processors = 8 }
      p.Workload.Schemas.jcat p.Workload.Schemas.jdb plan
  in
  let aware = run true and naive = run false in
  Alcotest.(check bool)
    (Printf.sprintf "comm: aware %.1f < naive %.1f"
       aware.Parallel.Two_phase.comm_cost naive.Parallel.Two_phase.comm_cost)
    true
    (aware.Parallel.Two_phase.comm_cost < naive.Parallel.Two_phase.comm_cost);
  Alcotest.(check bool) "response no worse" true
    (aware.Parallel.Two_phase.response_time
     <= naive.Parallel.Two_phase.response_time +. 1e-9)

(* Every operator's own work lands in exactly one segment, so the
   schedule's total work is the plan's summed own work — not the root's
   own work alone. *)
let test_total_work_sums_own_work () =
  let w, plan = star_plan () in
  let cat = w.Workload.Schemas.cat and db = w.Workload.Schemas.db in
  let expected = sum_work (Obs.Est.annotate cat db plan) in
  List.iter
    (fun p ->
       let s =
         Parallel.Two_phase.run
           ~config:{ Parallel.Two_phase.default_config with processors = p }
           cat db plan
       in
       Alcotest.(check (float 1e-6))
         (Printf.sprintf "total work at %d processors" p)
         expected s.Parallel.Two_phase.total_work)
    [ 1; 4; 64 ];
  Alcotest.(check bool) "root's own work is a strict part" true
    ((Obs.Est.annotate cat db plan).(0).Obs.Est.work < expected)

(* The index-NL join's cardinality comes from its key equality (about one
   Dept row per Emp row), not the Cartesian product of its inputs. *)
let test_index_nl_segment_estimates () =
  let w, plan = inl_plan () in
  let cat = w.Workload.Schemas.cat and db = w.Workload.Schemas.db in
  let est = Obs.Est.annotate cat db plan in
  let inl = est.(2) in
  let cartesian = 2000. *. 40. in
  Alcotest.(check bool)
    (Printf.sprintf "index-nl rows %.0f ~ 2000" inl.Obs.Est.rows)
    true
    (inl.Obs.Est.rows > 500. && inl.Obs.Est.rows < 8000.);
  let segs =
    Parallel.Two_phase.decompose
      { Parallel.Two_phase.default_config with partition_aware = false }
      cat db plan
  in
  (* build on D2, then the Emp -> index-nl -> hash-join probe pipeline,
     then the sort *)
  Alcotest.(check int) "segments" 3 (List.length segs);
  let probe = List.nth segs 1 in
  Alcotest.(check (float 1e-6)) "probe comm = index-nl key-equality rows"
    inl.Obs.Est.rows probe.Parallel.Two_phase.comm_rows;
  Alcotest.(check bool) "comm far below the Cartesian product" true
    (probe.Parallel.Two_phase.comm_rows < cartesian /. 10.);
  Alcotest.(check (float 1e-6)) "probe work = its operators' own work"
    (est.(1).Obs.Est.work +. inl.Obs.Est.work +. est.(3).Obs.Est.work)
    probe.Parallel.Two_phase.work;
  Alcotest.(check (float 1e-6)) "segments sum to the plan's own work"
    (sum_work est)
    (List.fold_left (fun a s -> a +. s.Parallel.Two_phase.work) 0. segs)

(* The morsel engine's per-node schedule: scans' page counts cap each
   segment, the dimension/build pipelines fit in one page. *)
let test_node_dop_pinned () =
  let check name cat plan procs expected =
    let dop =
      Parallel.Two_phase.node_dop
        { Parallel.Two_phase.default_config with processors = procs }
        cat plan
    in
    Alcotest.(check (list int))
      (Printf.sprintf "%s at %d processors" name procs)
      expected
      (List.map dop (Exec.Plan.preorder plan))
  in
  let w, star = star_plan () in
  check "star" w.Workload.Schemas.cat star 2 [ 2; 2; 2; 2; 1; 1; 1 ];
  check "star" w.Workload.Schemas.cat star 4 [ 4; 4; 4; 4; 1; 1; 1 ];
  let w, inl = inl_plan () in
  check "index-nl" w.Workload.Schemas.cat inl 2 [ 2; 2; 2; 2; 1 ];
  check "index-nl" w.Workload.Schemas.cat inl 4 [ 4; 4; 4; 4; 1 ]

let test_blocking_operators_segment () =
  let w, _ = star_plan () in
  let scan = Exec.Plan.Seq_scan { table = "Sales"; alias = "Sales"; filter = None } in
  let sorted =
    Exec.Plan.Sort
      ([ { Exec.Plan.key = Expr.col ~rel:"Sales" ~col:"amount";
           descending = false } ], scan)
  in
  let segs =
    Parallel.Two_phase.decompose Parallel.Two_phase.default_config
      w.Workload.Schemas.cat w.Workload.Schemas.db sorted
  in
  (* scan pipeline closed by the sort; sort is its own segment *)
  Alcotest.(check int) "two segments" 2 (List.length segs)

let () =
  Alcotest.run "parallel"
    [ ("two-phase",
       [ Alcotest.test_case "decomposition" `Quick test_decomposition;
         Alcotest.test_case "speedup monotone + saturating" `Quick
           test_speedup_monotone_and_saturating;
         Alcotest.test_case "work vs response" `Quick
           test_parallel_increases_total_work_not_response;
         Alcotest.test_case "partition awareness" `Quick
           test_partition_awareness_helps;
         Alcotest.test_case "blocking operators" `Quick
           test_blocking_operators_segment;
         Alcotest.test_case "total work sums own work" `Quick
           test_total_work_sums_own_work;
         Alcotest.test_case "index-nl segment estimates" `Quick
           test_index_nl_segment_estimates;
         Alcotest.test_case "node_dop pinned" `Quick test_node_dop_pinned ]) ]
