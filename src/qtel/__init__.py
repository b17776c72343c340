"""qtel: numerical workbench for standard N-qubit quantum teleportation.

Library layers: exact dense linear algebra (`linalg`), symplectic Pauli
strings (`pauli`), resource channels and the perfect-channel criterion
(`channel`), generalized Bell bases (`bell`), the protocol engine
(`teleport`), and magic partial bases with the non-existence witness
(`magic`).  The `qtel` console script fronts all of it.  Importing the
package loads none of them: each name below, and each layer as an
attribute, is imported on first use.
"""

import importlib

# each public name and the module that defines it
_HOMES = {
    "StateVector": "linalg",
    "Tolerance": "errors",
    "PauliString": "pauli",
    "pauli_from_quaternary": "pauli",
    "Channel": "channel",
    "channel_from_state": "channel",
    "BellBasis": "bell",
    "generate_from_seed": "bell",
    "standard_basis": "bell",
    "run_protocol": "teleport",
}
_SUBMODULES = ("errors", "linalg", "pauli", "channel", "bell", "teleport", "magic")

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOMES:
        return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
