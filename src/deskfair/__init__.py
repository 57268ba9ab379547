"""Fairness-aware desk-rejection under per-author submission limits.

Data model, exact-rational fairness metrics, baseline and optimal rejection
policies, a self-contained LP solver for the mean-cost relaxation, exact
branch-and-bound solvers, a brute-force oracle, instance generators, and a
CLI (`deskfair`).
"""

from .instance import (
    AuthorCategory,
    Instance,
    KeepVector,
    Paper,
    classify_author,
    coauthors,
    dump_instance,
    instance_from_json,
    instance_to_json,
    load_instance,
    validate_instance,
)
from .metrics import (
    FairnessReport,
    cost,
    evaluate,
    is_feasible,
    is_ideal,
    zeta_group,
    zeta_ind,
)
from .policies import (
    RunRecord,
    conventional_desk_reject,
    ideal_construct_small,
    roulette_expectation,
    roulette_reject,
)
from .lp import LinearProgram, LpSolution, build_group_relaxation, solve_lp, to_mps
from .solvers import (
    IntegralityAudit,
    SetCoverInstance,
    decide_set_cover,
    integrality_audit,
    reduce_set_cover,
    solve_group_exact,
    solve_ideal_feasibility,
    solve_individual_exact,
)
from .oracle import OracleResult, enumerate_optimal, remaining_counts_table
from .generators import (
    gen_case_study,
    gen_leave_one_out,
    gen_random,
    gen_triangle,
)

__version__ = "0.1.0"
