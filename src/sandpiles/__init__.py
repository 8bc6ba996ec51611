"""Sandpile (critical) groups of multigraphs and digraphs.

Exact cokernel computations, chip-firing dynamics with Dhar's and Speer's
burning tests, uniform-homomorphism group injections, box products of
configurations, and the explicit generator theory for cones of hypercubes.

The names below load on demand (PEP 562): `import sandpiles` imports no
submodule, and the first read of a name imports the module that defines it
and binds the name here, so later reads are plain attribute lookups.
`sandpiles.dynamics` loads `graphs` and `errors` but not `intlinalg`, which
the group imports when it first factors a Laplacian.
"""

from importlib import import_module

_EXPORTS = {
    "graphs": (
        "Digraph",
        "Multigraph",
        "SinkedGraph",
        "build_digraph",
        "build_multigraph",
        "cartesian_product",
        "cone",
        "contract",
        "cycle_graph",
        "hypercube",
        "k2",
        "subcube",
        "thick_k2_cone",
        "thick_pair",
        "to_sink_digraph",
    ),
    "intlinalg": (
        "GroupStructure",
        "IntMatrix",
        "SmithDecomposition",
        "determinant",
        "invariant_factors",
        "laplacian",
        "reduced_laplacian",
        "smith_normal_form",
    ),
    "dynamics": (
        "RecurrentConfig",
        "SandpileGroup",
        "add_recurrent",
        "congruent",
        "element_order",
        "identity",
        "is_recurrent_burning",
        "recurrent_orbit",
        "recurrent_representative",
        "sandpile_group",
        "stabilize",
    ),
}
_SUBMODULES = ("dynamics", "errors", "graphs", "intlinalg")
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_SUBMODULES, *_ORIGIN])


def __getattr__(name: str):
    if name in _ORIGIN:
        value = getattr(import_module(f".{_ORIGIN[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
