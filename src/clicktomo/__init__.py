"""Quantum state reconstruction from on/off photodetector clicks.

Pipeline: simulate no-click statistics of a signal state mixed with a
coherent probe on a beam splitter, reconstruct the displaced photon-number
diagonal at each phase-space point by expectation-maximization, read off the
Wigner value, and recover the density matrix by quadrature over the map.
The package exports nothing, so a stage loads only the layers it uses.
"""

__version__ = "0.1.0"
