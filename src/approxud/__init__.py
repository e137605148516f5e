"""Approximate unambiguous discrimination of quantum states and channels.

Computes the minimum inconclusive (failure) probability subject to bounded
conclusive-error tolerances: exactly for small ensembles via a dense
semidefinite program, in closed form for binary pure states, and as lower
bounds valid for arbitrary adaptive protocols in the channel case via
Choi-state reduction.
"""

from .qmath import (
    DensityMatrix,
    PureState,
    StateEnsemble,
    fidelity,
    matrix_sqrt,
    max_entangled,
    partial_trace,
    trace_norm,
)
from .sdp import (
    DiscriminationSolution,
    Povm,
    ToleranceVector,
    conditional_errors,
    mix_povms,
    p_fail_of,
    solve_min_fail,
)
from .state_ud import (
    BinaryPureProblem,
    BinaryPureSolution,
    OperatingPoint,
    UnrescaledLanes,
    UnrescaledPoint,
    analytic_pf_bound,
    continuity_interval,
    continuity_shifted_tolerance,
    depolarizing_pair_fidelity,
    depolarizing_pair_states,
    depolarizing_pair_strategy,
    erasure_pair_fidelity,
    erasure_pair_states,
    erasure_pair_strategies,
    erasure_pair_strategy,
    fidelity_lower_bounds,
    helstrom_binary,
    helstrom_tangency,
    invert_unrescaled,
    invert_unrescaled_lanes,
    overlap_window,
    pure_pair_pf,
    rescaled_to_unrescaled,
    solve_pure_pair,
)
from .channel_ud import (
    ChannelBoundLanes,
    ChannelBoundResult,
    ChannelEnsemble,
    KrausChannel,
    SimulationError,
    UncertifiedBoundError,
    amplitude_damping_channel,
    amplitude_damping_choi_fidelity,
    best_bound_over_ports,
    best_port,
    channel_fail_lower_bound,
    channel_fail_lower_bound_lanes,
    channel_fail_lower_bound_sdp,
    choi_fidelity_power,
    choi_state,
    classical_erasure_bound,
    classical_pauli_bound,
    erasure_channel,
    pauli_gate_channel,
    pbt_error_bound,
)

__version__ = "0.1.0"
