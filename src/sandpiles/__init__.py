"""Sandpile (critical) groups of multigraphs and digraphs.

Exact cokernel computations, chip-firing dynamics with Dhar's and Speer's
burning tests, uniform-homomorphism group injections, box products of
configurations, and the explicit generator theory for cones of hypercubes.
"""

from .graphs import (
    Digraph,
    Multigraph,
    SinkedGraph,
    build_digraph,
    build_multigraph,
    cartesian_product,
    cone,
    contract,
    cycle_graph,
    hypercube,
    k2,
    subcube,
    thick_k2_cone,
    thick_pair,
    to_sink_digraph,
)
from .intlinalg import (
    GroupStructure,
    IntMatrix,
    SmithDecomposition,
    determinant,
    invariant_factors,
    laplacian,
    reduced_laplacian,
    smith_normal_form,
)
from .dynamics import (
    RecurrentConfig,
    SandpileGroup,
    add_recurrent,
    congruent,
    element_order,
    identity,
    is_recurrent_burning,
    recurrent_orbit,
    recurrent_representative,
    sandpile_group,
    stabilize,
)

__all__ = [name for name in dir() if not name.startswith("_")]
