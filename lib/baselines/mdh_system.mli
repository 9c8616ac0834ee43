(** The paper's approach: the MDH directive, transformed to the DSL
    representation and compiled by the MDH pipeline with ATF auto-tuning
    (Sections 3-5).

    Capabilities — the union the baselines each lack a piece of: multi-level
    tiling of every dimension, parallelisation of *any* dimension whose
    combine operator is associative (including user-defined [pw] operators
    and [ps] prefix sums), full use of all device layers, and auto-tuned
    tile/parallelisation choices. *)

val system : Common.system
(** [compile ~tuned:false] uses the untuned heuristic schedule (the ablation
    baseline); [~tuned:true] runs the ATF search at 400 cost-model
    evaluations per search, the stand-in for the paper's 12-hour tuning
    budget. *)
