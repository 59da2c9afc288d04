"""Open-system toolkit for the measurement-free teleportation circuit.

The package simulates the three-qubit circuit as a one-qubit dynamical
map, derives its effective depolarizing channel, quantifies information
back-flow with the BLP, RHP, and LFS non-Markovianity measures, and tracks
system-environment correlations along any grouping of the gates in time.

Exports load on first access (PEP 562): `import nmlab` imports no submodule
and no numpy, and neither it nor any module but `nmlab.cli` touches
`os.environ`.
"""

import importlib.util

__version__ = "0.23.0"

# each exported name, under the module that defines it
EXPORTS = {
    "qmath": ("choi_state", "kron", "mutual_information", "partial_trace",
              "partial_transpose", "trace_distance", "trace_norm", "vn_entropy"),
    "register": ("BLOCK_SWAP", "GATES_BBC", "GATES_SWAP", "CircuitVariant", "DynamicsScheme",
                 "GateSpec", "alpha_ket", "bell_basis", "circuit_unitary", "gate_sequence",
                 "gate_unitary", "joint_states", "system_map_stack", "werner"),
    "channel": ("bell_sandwich_table", "distance_after_block1", "final_distance", "kraus_set"),
    "nonmarkov": ("MeasureReport", "blp_measure", "blp_pair_gain", "first_crossing",
                  "lfs_measure", "rhp_measure"),
    "correlations": ("CorrelationSample", "classical_correlations", "correlation_trajectory",
                     "log_negativity"),
}


def _resolve(name):
    """An exported name, or a submodule reached as an attribute, imported on first access."""
    owner = next((module for module, names in EXPORTS.items() if name in names), None)
    if owner is not None:
        return getattr(importlib.import_module(f".{owner}", __name__), name)
    if name.isidentifier() and importlib.util.find_spec(f".{name}", __name__):
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__getattr__ = _resolve
