"""charfol: combinatorial characteristic foliations on the 2-sphere.

Separatrix graphs with rotation systems, their invariants (point surplus,
transverse regions, same-sign polygons), taming value assignments,
validated rewrite moves, a tightness decision procedure with certificates,
and constructive extension of tame spheres to ball handle decompositions.
"""

from .model import (
    ELLIPTIC,
    EMBRYO,
    HYPERBOLIC,
    EndRef,
    Face,
    FoliationGraph,
    GraphError,
    Separatrix,
    SingularPoint,
    build,
)

__all__ = [
    "ELLIPTIC",
    "EMBRYO",
    "HYPERBOLIC",
    "EndRef",
    "Face",
    "FoliationGraph",
    "GraphError",
    "Separatrix",
    "SingularPoint",
    "build",
]

__version__ = "0.1.0"
