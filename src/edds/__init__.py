"""Energy-delay-distortion scheduling.

A library and CLI for splitting one energy budget across a batch of packets:
a convex continuous model (per-packet energies, times and a transmission
order) solved per order by a root find on the energy multiplier with
per-packet closed forms, brute-force and shortest-packet-first order search,
a discretized resource-block variant with a greedy allocator and an exact
subset-DP oracle to measure it against, and a property-check engine for the
structural facts the algorithms rely on.
"""

from .model import (
    T_MIN,
    ContinuousAllocation,
    CostBreakdown,
    DomainError,
    InfeasibleError,
    Instance,
    Order,
    SizeError,
    allocation_from_doc,
    delay_coefficients,
    evaluate_cost,
    instance_from_doc,
    shannon_bits,
)
from .csolve import (
    SolveReport,
    gradient,
    hessian_block,
    project_budget,
    solve_fixed_order,
)
from .order import brute_force_order, spf_order
from .discrete import (
    DiscreteAllocation,
    DiscreteCost,
    DiscreteParams,
    TraceStep,
    certificate_sweep,
    discrete_allocation_from_doc,
    discrete_cost,
    greedy_allocate,
    oracle_allocate,
    trace_to_csv,
)
from .verify import (
    PropertyReport,
    SetFunction,
    check_convexity,
    check_monotone,
    check_supermodular,
    di_as_set_function,
)

__version__ = "0.1.0"

__all__ = [
    "T_MIN",
    "ContinuousAllocation",
    "CostBreakdown",
    "DomainError",
    "InfeasibleError",
    "Instance",
    "Order",
    "SizeError",
    "allocation_from_doc",
    "delay_coefficients",
    "evaluate_cost",
    "instance_from_doc",
    "shannon_bits",
    "SolveReport",
    "gradient",
    "hessian_block",
    "project_budget",
    "solve_fixed_order",
    "brute_force_order",
    "spf_order",
    "DiscreteAllocation",
    "DiscreteCost",
    "DiscreteParams",
    "TraceStep",
    "certificate_sweep",
    "discrete_allocation_from_doc",
    "discrete_cost",
    "greedy_allocate",
    "oracle_allocate",
    "trace_to_csv",
    "PropertyReport",
    "SetFunction",
    "check_convexity",
    "check_monotone",
    "check_supermodular",
    "di_as_set_function",
    "__version__",
]
