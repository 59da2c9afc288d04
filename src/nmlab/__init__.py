"""Open-system toolkit for the measurement-free teleportation circuit.

The package simulates the three-qubit circuit as a one-qubit dynamical
map, derives its effective depolarizing channel, quantifies information
back-flow with the BLP, RHP, and LFS non-Markovianity measures, and tracks
system-environment correlations along any grouping of the gates in time.
"""

__version__ = "0.22.0"

from .qmath import (
    choi_state,
    kron,
    mutual_information,
    partial_trace,
    partial_transpose,
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
    alpha_ket,
    bell_basis,
    circuit_unitary,
    gate_sequence,
    gate_unitary,
    joint_states,
    system_map_stack,
    werner,
)
from .channel import (
    bell_sandwich_table,
    distance_after_block1,
    final_distance,
    kraus_set,
)
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
    log_negativity,
)
