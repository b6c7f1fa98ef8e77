"""Exact solvers for multi-weighted energy and mean-payoff games.

Games are finite directed multigraphs with integer weight vectors on
edges and states split between two players. The central questions: can
Player 1, given some nonnegative initial credit vector, keep every
component of the running sum nonnegative forever (unknown initial
credit), and can a finite-memory strategy secure a mean-payoff threshold
in every dimension. All arithmetic is exact (integers and fractions).
"""

from .errors import (
    DimensionError,
    InvalidGameError,
    LpError,
    MwgError,
    ParseError,
    StrategyError,
    WalkError,
)
from .graphs import (
    Circuit,
    GraphEdge,
    MultiGraph,
    circuit_weight,
    negative_cycle_in_dimension,
    nonnegative_circuit,
    reachable,
    validate_circuit,
    zero_circuit,
)
from .model import (
    Edge,
    GameStructure,
    Lasso,
    MemorylessStrategy,
    MooreStrategy,
    State,
    Violation,
    as_moore,
    check_strategy,
    product_with_strategy,
    scale_weights,
    shift_weights,
    validate_game,
)
from .reductions import (
    CnfFormula,
    DecodedAssignment,
    KnapsackInstance,
    decode_3sat_spoiler,
    decode_knapsack_strategy,
    decode_memoryless_assignment,
    encode_3sat_memoryless,
    encode_3sat_two_player,
    encode_knapsack,
)
from .formats import (
    parse_certificate,
    parse_dimacs,
    parse_game,
    parse_knapsack,
    parse_threshold,
    write_certificate,
    write_game,
)
from .solvers import (
    CertificateCheck,
    MemorylessVerdict,
    Verdict,
    as_multigraph,
    clamped_fixed_credit_oracle,
    search_finite_memory_strategy,
    solve_meanpayoff_threshold,
    solve_memoryless_p1_energy,
    solve_memoryless_p1_meanpayoff,
    solve_unknown_credit,
    sufficient_credit,
    threshold_shifted,
    verify_p1_certificate,
    verify_p2_cover,
    verify_p2_spoiler,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
