"""Periodic orbits of saturated multi-agent networks.

Synthesis, simulation, and verification of exactly periodic solutions for
diffusively coupled double integrators and neutrally stable agents with
input saturation.
"""

from __future__ import annotations

from pathlib import Path

from .dynamics import (
    AgentState,
    GainParams,
    NsModel,
    Trajectory,
    normalize_ns,
    simulate,
)
from .graphs import (
    DistanceClasses,
    Partition,
    WeightedGraph,
    bfs_distances,
    distance_classes,
    is_connected,
    laplacian,
    make_partition,
    parse_graph,
    serialize_graph,
)
from .synthesis import (
    GainConditionError,
    InfeasibleConstraintsError,
    IntervalConstraint,
    OrbitPlan,
    PatternSpec,
    check_gains_di,
    check_gains_ns,
    init_states_ns,
    key_inequalities_ns,
    min_half_period,
    position_constraints,
    solve_positions,
    synthesize_di,
    synthesize_ns,
)
from .verify import (
    check_pattern,
    check_periodicity,
    minimal_period,
    oracle_check_di,
    verification_report,
)

__version__ = "0.1.0"


def fixture_path(name: str) -> Path:
    """Path to a bundled example input (e.g. 'graph7.txt')."""
    return Path(__file__).parent / "fixtures" / name
