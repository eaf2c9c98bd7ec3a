(* Provable-bound lints: compare the cost model's cardinality estimates
   against the analyzer's envelope at every operator of a logical or
   physical plan.  The envelope is sound, so an estimate escaping it is
   a definite estimator defect, not a statistics artifact — but the
   estimator is allowed a little deliberate slack (e.g. the [-0.5]
   distinct-count fudge), so the warnings fire only past a small
   tolerance.  An estimate of (essentially) zero on a provably nonempty
   operator is reported as an error: downstream costing would consider
   the subtree free.

   Codes: [est-above-envelope], [est-below-envelope] (warnings) and
   [est-zero-nonempty] (error). *)

open Relalg
module Diag = Verify.Diag

(* Relative + absolute slack before an escape is reported. *)
let rel_tol = 0.05

let abs_tol = 1.0

let check ~label (env : Domain.envelope) (est : float) : Diag.t list =
  let open Domain in
  if est < 0.5 && env.e_lo >= 1. then
    [ Diag.error ~path:[ label ] ~code:"est-zero-nonempty"
        (Fmt.str
           "cardinality estimate %g, but the operator provably yields at \
            least %g row(s)"
           est env.e_lo) ]
  else if est > (env.e_hi *. (1. +. rel_tol)) +. abs_tol then
    [ Diag.warning ~path:[ label ] ~code:"est-above-envelope"
        (Fmt.str
           "cardinality estimate %g escapes the provable envelope %a from \
            above"
           est pp_envelope env) ]
  else if est < (env.e_lo *. (1. -. rel_tol)) -. abs_tol then
    [ Diag.warning ~path:[ label ] ~code:"est-below-envelope"
        (Fmt.str
           "cardinality estimate %g escapes the provable envelope %a from \
            below"
           est pp_envelope env) ]
  else []

let algebra_label = function
  | Algebra.Scan { table; alias; _ } ->
    if alias = table then "scan " ^ table
    else Fmt.str "scan %s as %s" table alias
  | Algebra.Select _ -> "select"
  | Algebra.Project _ -> "project"
  | Algebra.Join (k, _, _, _) -> Algebra.join_kind_name k ^ " join"
  | Algebra.Group_by _ -> "group-by"
  | Algebra.Distinct _ -> "distinct"
  | Algebra.Order_by _ -> "order-by"

(* Lints never raise: a plan the estimator or analyzer cannot digest
   simply yields no findings. *)
let logical ?asm (db : Stats.Table_stats.db) (a : Algebra.t) : Diag.t list
  =
  match Absint.annotate_algebra ~db a with
  | exception _ -> []
  | annotated ->
    List.concat_map
      (fun (node, (st : Absint.state)) ->
        match Stats.Derive.of_algebra ?asm db node with
        | exception _ -> []
        | rs ->
          check ~label:(algebra_label node) st.Absint.env
            rs.Stats.Derive.card)
      annotated

let physical ~(est : Obs.Est.t) (cat : Storage.Catalog.t)
    (db : Stats.Table_stats.db) (p : Exec.Plan.t) : Diag.t list =
  match Absint.annotate_plan ~db cat p with
  | exception _ -> []
  | annotated ->
    (* both lists are in preorder: node [i] is estimate [i] *)
    List.concat
      (List.mapi
         (fun i (node, (st : Absint.state)) ->
           if i >= Array.length est then []
           else
             check ~label:(Exec.Plan.describe node) st.Absint.env
               est.(i).Obs.Est.rows)
         annotated)
