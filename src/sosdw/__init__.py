"""Trigonometric height-model partition function with domain-wall boundaries.

Five independent evaluation routes (exhaustive face enumeration, algebraic
creation-operator product, factorized permutation sum, contour-integral
residue sum, and contour quadrature) plus randomized verification suites
for every identity connecting them.

``import sosdw`` loads no submodule; ``sosdw.<module>`` imports the
submodule on first access.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = frozenset({"cli", "closed_form", "contour", "core", "face_model",
                         "rmatrix", "sampling", "verify", "yb_algebra"})


def __getattr__(name):
    # Called only for names not yet set; importing a submodule sets it.
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
