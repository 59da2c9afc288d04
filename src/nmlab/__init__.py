"""Open-system toolkit for the measurement-free teleportation circuit.

The package simulates the three-qubit circuit as a one-qubit dynamical
map, derives its effective depolarizing channel, quantifies information
back-flow with the BLP, RHP, and LFS non-Markovianity measures, and tracks
system-environment correlations along both interpolations of the dynamics.
"""

__version__ = "0.4.0"

from .qmath import (
    REGISTER,
    SYSTEM_ANCILLA,
    RegisterLayout,
    choi_state,
    kron,
    mutual_information,
    partial_trace,
    partial_transpose,
    superop_from_action,
    trace_distance,
    trace_norm,
    vn_entropy,
)
from .register import (
    BLOCK_SWAP,
    GATES_BBC,
    GATES_SWAP,
    CircuitVariant,
    DynamicsScheme,
    GateSpec,
    Interpolation,
    alpha_ket,
    bell_basis,
    bloch_ket,
    block_unitaries,
    circuit_unitary,
    gate_sequence,
    gate_unitary,
    joint_states,
    system_map_stack,
    werner,
)
from .channel import (
    BellSandwichTable,
    KrausSet,
    apply_effective_channel,
    bell_sandwich_table,
    distance_after_block1,
    final_distance,
    kraus_set,
    output_fidelity,
)
from .sweep import OptConfig, TimeGrid, default_grid
from .nonmarkov import (
    MeasureReport,
    blp_measure,
    blp_pair_gain,
    first_crossing,
    lfs_measure,
    rhp_measure,
)
from .correlations import (
    CorrelationSample,
    classical_correlations,
    correlation_trajectory,
    discord,
    log_negativity,
)
