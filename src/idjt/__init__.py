"""Influence diagram evaluation via strong junction trees.

Compiles a discrete influence diagram (chance variables with CPTs, ordered
decisions, additive utilities) into a strong junction tree and solves it by a
single collect pass, producing the maximum expected utility and an optimal
policy per decision.  A brute-force decision-tree oracle provides ground
truth for small models.
"""

from .compiler import (
    Clique,
    CompileError,
    EliminationOrder,
    MoralGraph,
    OrderError,
    StrongJunctionTree,
    build_strong_tree,
    cliques_of,
    compile_diagram,
    moralize,
    strong_elimination_order,
    triangulate,
    verify_strong,
)
from .model import (
    InfluenceDiagram,
    ParseError,
    Utility,
    Variable,
    Violation,
    chance_var,
    decision_var,
    parse_model,
    validate,
    write_model,
)
from .oracle import OracleCapError, OracleResult, brute_force, rollout
from .solver import (
    InvariantError,
    Policy,
    SolveResult,
    SolveRun,
    absorb,
    collect,
    extract_policies,
    initialize,
    meu,
    solve,
)
from .tables import (
    Table,
    UndefinedDivisionError,
    add,
    divide,
    extend,
    marg_all,
    max_out,
    multiply,
    sum_out,
)

__all__ = [name for name in dir() if not name.startswith("_")]
