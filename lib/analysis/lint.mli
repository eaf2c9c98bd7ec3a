(** Provable-bound lints: flag cardinality estimates that escape the
    analyzer's sound envelope.

    Diagnostic codes: [est-above-envelope] and [est-below-envelope]
    (warnings, fired past a small tolerance that absorbs the
    estimator's deliberate slack) and [est-zero-nonempty] (error: a
    ~zero estimate on an operator that provably yields rows). *)

(** Compare one estimate against one envelope. *)
val check :
  label:string -> Domain.envelope -> float -> Verify.Diag.t list

(** Lint a logical plan: [Stats.Derive] estimates vs analyzer
    envelopes, per operator.  Never raises. *)
val logical :
  ?asm:Stats.Derive.assumption ->
  Stats.Table_stats.db ->
  Relalg.Algebra.t ->
  Verify.Diag.t list

(** Lint a physical plan: the estimates [est] (an {!Obs.Est.annotate}
    result for this plan, node [i] in preorder) vs analyzer envelopes,
    per operator.  Never raises. *)
val physical :
  est:Obs.Est.t ->
  Storage.Catalog.t ->
  Stats.Table_stats.db ->
  Exec.Plan.t ->
  Verify.Diag.t list
