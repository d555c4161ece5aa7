"""Bud generating systems over colored operads.

Exact enumeration of operad languages: concrete operads and the bud
construction (`core`, `operads`), truncated series with pre-Lie and
composition products (`series`), bud generating systems and their hook,
syntactic and synchronous series (`systems`), color-type recurrences and
functional systems (`typecount`), and compilers from context-free,
regular tree, and synchronous grammars (`grammars`).
"""

from .core import (
    MONO,
    BudgenError,
    BudOperad,
    CompositionError,
    DivergenceError,
    NotGeneratedError,
    Operad,
    PositionError,
    colorize,
    prune,
    type_of,
)
from .operads import (
    ASchrOperad,
    AsOperad,
    CollectionSpec,
    DiasOperad,
    FreeOperad,
    MagOperad,
    MotzOperad,
    capped_tree_operad,
    degree_bound,
    finitely_factorizing_check,
    hook_count,
    left_expression_count,
    s_degree,
    treelike_expressions,
)
from .series import (
    Series,
    add,
    characteristic,
    col_series,
    colt_table,
    compose_inverse,
    compose_power,
    compose_prod,
    compose_star,
    mu_encode,
    pre_lie,
    pre_lie_power,
    pre_lie_star,
    pre_lie_star_and_inverse,
    pru_series,
    scalar_product,
    scale,
    sub,
    units_series,
    word_operad,
)
from .systems import (
    BUILTIN_NAMES,
    BudSystem,
    builtin,
    system_dumps,
    system_loads,
)
from .typecount import (
    chi_table,
    colt_sync_coeff,
    colt_synt_coeff,
    g_poly,
    hook_triangle,
    lang_counting_series,
    multiset_factorial,
    refined_perfect,
    solve_sync_system,
    solve_synt_system,
    sync_counting_series,
    sync_iterates,
)

__version__ = "0.1.0"
