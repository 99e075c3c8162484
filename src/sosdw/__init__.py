"""Trigonometric height-model partition function with domain-wall boundaries.

Five independent evaluation routes (exhaustive face enumeration, algebraic
creation-operator product, factorized permutation sum, contour-integral
residue sum, and contour quadrature) plus randomized verification suites
for every identity connecting them.
"""

__version__ = "0.1.0"
