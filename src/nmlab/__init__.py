"""Open-system toolkit for the measurement-free teleportation circuit.

The package simulates the three-qubit circuit as a one-qubit dynamical
map, derives its effective depolarizing channel, quantifies information
back-flow with the BLP, RHP, and LFS non-Markovianity measures, and tracks
system-environment correlations along any grouping of the gates in time.

Each name is public in the module that defines it (`from nmlab.nonmarkov
import blp_measure`). `import nmlab` imports no submodule and no numpy, and
neither it nor any module but `nmlab.cli` touches the environment.
"""

__version__ = "0.30.0"
