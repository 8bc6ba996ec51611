"""Box products of configurations on cones of cartesian products.

A BoxContext pins the aligned vertex orders once; after that every product
map is index arithmetic (product index j*|V(G)| + i), never label lookup.
The class of a boxed configuration is read from the product cone group's
`representative`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from ._record import Record
from .dynamics import Chips, RecurrentConfig, sandpile_group
from .errors import ContextMismatch, NonPositiveMultiplicity
from .graphs import Multigraph, SinkedGraph, cartesian_product, cone


class BoxContext(Record):
    """Cones of g, h and g box h with aligned vertex orders."""

    __slots__ = ("g", "h", "n", "__dict__")

    def __init__(self, g: Multigraph, h: Multigraph, n: int = 1):
        if n < 1:
            raise NonPositiveMultiplicity(f"cone needs n >= 1, got {n}")
        super().__init__(g, h, n)

    @cached_property
    def product(self) -> Multigraph:
        return cartesian_product(self.g, self.h)

    @cached_property
    def cone_g(self) -> SinkedGraph:
        return cone(self.g, self.n)

    @cached_property
    def cone_h(self) -> SinkedGraph:
        return cone(self.h, self.n)

    @cached_property
    def cone_product(self) -> SinkedGraph:
        return cone(self.product, self.n)

    def index(self, i: int, j: int) -> int:
        return j * self.g.n + i

    def box(self, a: Sequence[int], b: Sequence[int]) -> Chips:
        if len(a) != self.g.n or len(b) != self.h.n:
            raise ContextMismatch(
                f"expected lengths {self.g.n} and {self.h.n}, got {len(a)} and {len(b)}"
            )
        return tuple(a[i] + b[j] for j in range(self.h.n) for i in range(self.g.n))


def embed_factor(
    ctx: BoxContext, a: RecurrentConfig | Sequence[int], factor: str = "g"
) -> RecurrentConfig:
    """Injective group map from a factor cone into the product cone: box the
    configuration with the identity of the other factor's cone, `factor`
    naming which of g and h the configuration lives on.

    The map is one of classes for every n: the other factor's Laplacian
    kills constant vectors, so box(L^T y, 0) = L'^T box(y, 0), with L and L'
    the reduced Laplacians of the factor cone and the product cone (likewise
    for factor h).  Congruent inputs therefore box to congruent vectors and
    reach the same class, and the product group's `representative` returns
    it certified.  At n = 1 a box of recurrents is recurrent outright, so it
    is returned as it stands after one burning test; for n > 1 it can be
    unstable and is lifted.  A configuration of the wrong length raises
    ContextMismatch from the box.
    """
    if factor == "g":
        vec = ctx.box(tuple(a), sandpile_group(ctx.cone_h).identity.values)
    elif factor == "h":
        vec = ctx.box(sandpile_group(ctx.cone_g).identity.values, tuple(a))
    else:
        raise ValueError("factor must be 'g' or 'h'")
    return sandpile_group(ctx.cone_product).representative(vec)
