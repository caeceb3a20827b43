"""Simulator and training toolkit for single-qubit re-upload circuits.

A signal qubit is sent through a stack of layers; each layer rotates the
qubit, couples it to a freshly prepared copy of the input state, and traces
the copy out.  Because every layer acts affinely on the signal Bloch vector,
the readout is a polynomial in the Pauli coefficients of the uploaded state.
The package simulates these circuits exactly, compiles target polynomials
into circuit parameters, trains the circuits on labeled quantum datasets and
numerically certifies the algebraic identities the construction rests on.

The submodules (linalg, states, channel, compiler, trainer, verify, cli)
are the API; import them directly.
"""

__version__ = "0.1.0"
