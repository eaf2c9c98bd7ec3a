(** Post-hoc per-node estimates for physical plans.

    The enumerator costs logical subsets, not physical nodes; this module
    derives each node's estimate by one bottom-up {!Stats.Derive} pass
    over the final plan — the same propagation rules and
    {!Cost.Cost_model} formulas the optimizer used.  It is the one
    estimator over {!Exec.Plan.t}: EXPLAIN ANALYZE, the provable-bound
    lint, feedback recording and the two-phase parallel scheduler all
    read its result.  Must run while any temporary tables the plan scans
    are still present in the catalog and stats registry. *)

type node = {
  rows : float;  (** estimated output cardinality *)
  pages : float;  (** estimated pages of the output stream *)
  work : float;  (** this operator's own cost, children excluded *)
  fb_key : (Stats.Feedback.key * string list) option;
      (** feedback-cache key and involved base tables, mirroring
          [Systemr.Join_order.feedback_key] for SPJ subtrees; [None]
          unless annotated with [~feedback], and for subtrees touching
          materialized-view temp tables *)
}

(** One entry per node in {!Exec.Plan.preorder} order: index [i] is the
    node with operator id [i] in {!Exec.Instrument}. *)
type t = node array

(** Derive estimates for every node of [plan] against [db], which must
    be the statistics the planner used — annotate at plan time, before
    anything refreshes the registry.  When [feedback] is set, fresh
    observed cardinalities override the derived ones node by node,
    propagating upward exactly as in the optimizer.  [params] prices
    [work] (default {!Cost.Cost_model.default_params}). *)
val annotate :
  ?asm:Stats.Derive.assumption ->
  ?feedback:Stats.Feedback.t ->
  ?params:Cost.Cost_model.params ->
  Storage.Catalog.t -> Stats.Table_stats.db -> Exec.Plan.t -> t

(** Copy the row estimates onto an instrument recorder's operators (by
    operator id). *)
val attach : t -> Exec.Instrument.t -> unit
