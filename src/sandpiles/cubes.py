"""Parity stripes, stripe subgroups, and the verification reports for cones of
hypercubes.

Bit masks play the role of coordinate subsets: a mask is a 0/1 tuple of
length d, and a stripe assigns one value to the vertices whose masked bit
count is even and another to the odd ones.  The stripe with values
(d, d - weight) generates a cyclic subgroup of order 2*weight + 1 in the
sandpile group of the cone, and those subgroups decompose the whole group.
The odd-cone reports all read one character proof, `_odd_cone_orders`, with
no LU and no Smith form; the LU serves only `verify_even_cone_counterexample`.

The two maps behind the generators are the other layers' maps, not copies:
the parity collapse is `morphisms.bipartite_collapse_hom` of the masked
subcube, and the subcube embedding is a `products.BoxContext` box with
Q_d = Q_S box Q_{S^c}, whose class is the cube cone group's
`representative`.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, prod
from typing import TYPE_CHECKING, Sequence

from ._record import Record
from .dynamics import (
    Chips,
    RecurrentConfig,
    SandpileGroup,
    _fire,
    sandpile_group,
)
from .errors import OutOfRange, ValidationFailed
from .graphs import (
    SinkedGraph,
    cone,
    hypercube,
    hypercube_label,
    mask_int,
    subcube,
    thick_pair,
)

# intlinalg, morphisms and products load in the functions that use them, so
# the character-proof reports run without them.
if TYPE_CHECKING:
    from .morphisms import UniformHom
    from .products import BoxContext

BitMask = tuple[int, ...]
MAX_D = 12  # the largest cube dimension of the odd-cone reports


@lru_cache(maxsize=8)
def cube_cone(d: int, n: int = 1) -> SinkedGraph:
    return cone(hypercube(d), n)


def parity_stripe(d: int, mask: Sequence[int], even_value: int, odd_value: int) -> Chips:
    """Vector over the 2^d cube vertices: even_value where the masked bit count
    is even, odd_value where it is odd."""
    m = mask_int(mask)
    if len(mask) != d:
        raise ValueError(f"mask length {len(mask)} != {d}")
    return tuple(
        even_value if (x & m).bit_count() % 2 == 0 else odd_value
        for x in range(1 << d)
    )


def stripe_generator(d: int, mask: Sequence[int]) -> RecurrentConfig:
    """The stripe (d, d - weight): a recurrent configuration of the cube cone
    generating a cyclic subgroup of order 2*weight + 1 (order 1 for mask 0)."""
    w = sum(mask)
    values = parity_stripe(d, mask, d, d - w)
    graph = cube_cone(d, 1)
    if not sandpile_group(graph).is_recurrent(values):
        raise ValidationFailed(f"stripe generator {values} is not recurrent")
    return RecurrentConfig(graph, values, "burning")


class StripeSubgroup(Record):
    """A stripe-generated cyclic subgroup of a cube-cone sandpile group.

    `elements` are the actual recurrent configurations (closed under the group
    law); `patterns` are the printed parameter-stripe vectors representing the
    same classes.  A pattern need not be recurrent itself, only congruent to
    its element, on 1-cones too; the two lists coincide only in the 1-cone
    subgroups of `stripe_subgroup`, which replaces the patterns by the
    elements.
    """

    __slots__ = ("graph", "n", "mask", "order", "expected_order", "generator", "elements",
                 "patterns")

    @property
    def odd_cone(self) -> bool:
        # The direct-sum decomposition claim needs an odd cone multiplicity.
        return self.n % 2 == 1


def _cyclic_powers(group: SandpileGroup, gen: Chips) -> list[Chips]:
    """Powers gen, 2*gen, ... up to and including the identity."""
    identity = group.identity.values
    powers = [gen]
    while powers[-1] != identity:
        powers.append(group.add_values(powers[-1], gen))
        if len(powers) > group.order:
            raise ValidationFailed("power iteration failed to close")
    return powers


def stripe_subgroup(d: int, mask: Sequence[int]) -> StripeSubgroup:
    """The stripe subgroup of cone_stripe_subgroup at n = 1, checked to be the
    2*weight+1 closed-form powers thick_k2_power(weight, k) lifted through the
    parity stripe and shifted by (d-weight)*1; its generator is the stripe
    (d, d - weight), the identity d*1 at weight 0."""
    sub = cone_stripe_subgroup(d, 1, mask)
    w = sum(sub.mask)
    shift = d - w
    expected = {
        parity_stripe(d, sub.mask, *(v + shift for v in thick_k2_power(w, k)))
        for k in range(2 * w + 1)
    }
    if set(sub.elements) != expected:
        raise ValidationFailed(
            f"stripe powers {sorted(set(sub.elements))} differ from the stripe family"
        )
    return StripeSubgroup(sub.graph, sub.n, sub.mask, sub.order, sub.expected_order,
                          sub.elements[0], sub.elements, sub.elements)


def thick_k2_power(r: int, k: int) -> tuple[int, int]:
    """Closed-form k-th power of the generator (r, 0) on the thick two-vertex
    cone: (r-j, r) at k = 2j, (r, j) at k = 2j+1."""
    if not 0 <= k <= 2 * r:
        raise OutOfRange(f"need 0 <= k <= {2 * r}, got {k}")
    j, odd = divmod(k, 2)
    return (r, j) if odd else (r - j, r)


@lru_cache(maxsize=64)
def _embed_context(d: int, mask: BitMask, n: int) -> tuple[BoxContext, Chips, tuple[int, ...]]:
    """The box context of Q_d = Q_S box Q_{S^c}, the identity of the
    complementary subcube's cone, and the product index of each cube vertex
    x, the product vertex (x & m, x & ~m); built once per (d, mask, n)."""
    from .products import BoxContext

    m = mask_int(mask)
    ctx = BoxContext(subcube(d, mask), subcube(d, tuple(1 - b for b in mask)), n)
    label = [hypercube_label(x, d) for x in range(1 << d)]
    order = tuple(
        ctx.index(ctx.g.index(label[x & m]), ctx.h.index(label[x & ~m]))
        for x in range(1 << d)
    )
    return ctx, sandpile_group(ctx.cone_h).identity.values, order


def subcube_embed(d: int, mask: Sequence[int], values: Sequence[int], n: int = 1) -> Chips:
    """Box a configuration on the masked subcube's cone with the identity of the
    complementary subcube's cone, Q_d = Q_S box Q_{S^c}, read back in cube
    vertex order."""
    ctx, identity, order = _embed_context(d, tuple(mask), n)
    if len(values) != ctx.g.n:
        raise ValueError(f"expected {ctx.g.n} values, got {len(values)}")
    boxed = ctx.box(values, identity)
    return tuple(boxed[i] for i in order)


def subcube_embed_recurrent(
    d: int, mask: Sequence[int], c: RecurrentConfig | Sequence[int], n: int = 1
) -> RecurrentConfig:
    """The injective group map from the subcube cone into the full cube cone."""
    vec = subcube_embed(d, mask, tuple(c), n)
    return sandpile_group(cube_cone(d, n)).representative(vec)


def parity_collapse_hom(d: int, mask: Sequence[int]) -> UniformHom:
    """The surjective uniform homomorphism from the masked subcube's cone onto
    the thick two-vertex cone, v_x -> v1/v2 by masked parity, of degree
    2^(weight-1): the bipartite collapse of the weight-regular subcube."""
    from .morphisms import bipartite_collapse_hom

    w = sum(mask)
    if w == 0:
        raise ValueError("the collapse needs a nonzero mask")
    sub = subcube(d, mask)
    hom = bipartite_collapse_hom(
        sub, tuple([v for k, v in enumerate(sub.vertices) if k.bit_count() & 1 == p]
                   for p in (0, 1))
    )
    if hom.degree != 1 << (w - 1):
        raise ValidationFailed(f"collapse degree {hom.degree} != 2^{w - 1}")
    return hom


def cone_stripe_subgroup(d: int, n: int, mask: Sequence[int]) -> StripeSubgroup:
    """Stripe subgroup of the n-cone: lift the powers of the thick two-vertex
    n-cone's generator through the parity stripe and reduce each pattern to
    its recurrent representative.

    The generator on the pair cone is (ceil(w/n)*n, 0), the smallest positive
    multiple of n at or above the weight w; at n = 1 that is the classical
    (w, 0).  The patterns reproduce the printed representative lists; the
    elements are the genuine subgroup.  The expected order is 2w + n; the
    actual one, (2w + n)/gcd(ceil(w/n)*n, 2w + n), is below it in some cases
    with gcd(n, w) = 1 too (9, not 27, at n = 5, w = 11), and the report
    carries it.  `odd_cone` flags that the direct-sum claim needs n odd.
    """
    mask = tuple(mask)
    w = sum(mask)
    graph = cube_cone(d, n)
    group = sandpile_group(graph)
    if w == 0:
        patterns = tuple(parity_stripe(d, mask, i, i) for i in range(n))
        elements = tuple(group.representative(p).values for p in patterns)
        gen = patterns[1] if n > 1 else patterns[0]
        if len(set(elements)) != n:
            raise ValidationFailed("constant classes collided")
        return StripeSubgroup(graph, n, mask, n, n, gen, elements, patterns)

    pair_group = sandpile_group(cone(thick_pair(w), n))
    pair_gen = (-(-w // n) * n, 0)
    if not pair_group.is_recurrent(pair_gen):
        raise ValidationFailed(f"{pair_gen} is not recurrent on the pair cone")
    pair_powers = _cyclic_powers(pair_group, pair_gen)
    patterns = tuple(parity_stripe(d, mask, p, q) for p, q in pair_powers)
    elements = tuple(group.representative(pat).values for pat in patterns)
    if len(set(elements)) != len(elements):
        raise ValidationFailed("stripe lifts collided; injection broken")
    return StripeSubgroup(
        graph, n, mask, len(elements), 2 * w + n, patterns[0], elements, patterns
    )


# -- verification reports ---------------------------------------------------------


class StructureReport(Record):
    __slots__ = ("d", "k", "passed", "computed", "expected")

    def to_dict(self) -> dict:
        return {
            "check": "structure",
            "d": self.d,
            "k": self.k,
            "passed": self.passed,
            "computed_elementary_divisors": list(self.computed),
            "expected_elementary_divisors": list(self.expected),
        }


def structure_formula_factors(d: int, k: int) -> list[int]:
    """Cyclic orders of the odd-cone formula: 2i+2k+1 with multiplicity C(d, i)."""
    return [2 * i + 2 * k + 1 for i in range(d + 1) for _ in range(comb(d, i))]


@lru_cache(maxsize=16)
def _odd_cone_orders(d: int, n: int) -> tuple[int, ...] | None:
    """The cyclic orders 2|S| + n of K = Z^V / Im L of cube_cone(d, n), proved
    once per (d, n) by characters for odd n; None for even n or a failed check.

    chi_S(x) = (-1)^(S.x) has L chi_S = lambda_S chi_S, lambda_S = 2|S| + n
    (Godsil-Royle on Cayley graphs of Z_2^d; Bai, "On the critical group of
    the n-cube", 2003), checked for S the first w coordinates, w = 0..d.
    (a) lambda_S chi_S = L chi_S is in Im L, so ord(chi_S) | lambda_S.
    (b) Coordinate permutations fix the apex and permute the chi_S, so one
        S per weight covers them all.
    (c) sum_S chi_S = 2^d e_0 and translations x -> x xor a fix the apex,
        so 2^d Z^V lies in the span of the chi_S.
    (d) |K| = prod lambda_S is odd, so 2^d is invertible on K and the chi_S
        generate K; |K| <= prod ord(chi_S) <= prod lambda_S = |K| makes every
        order exact and the sum direct.
    """
    if n % 2 == 0:
        return None
    graph = cube_cone(d, n)
    for w in range(d + 1):
        low = (1 << w) - 1
        chi = [-1 if (x & low).bit_count() % 2 else 1 for x in range(1 << d)]
        if _fire(graph, chi) != [(2 * w + n) * c for c in chi]:
            return None
    return tuple(structure_formula_factors(d, n // 2))


def verify_structure(d: int, k: int = 0) -> StructureReport:
    """The elementary divisors that `_odd_cone_orders` proves for the
    (2k+1)-cone of the d-cube (none if it fails) against the closed form."""
    from .intlinalg import elementary_divisors_of

    if not 1 <= d <= MAX_D:
        raise OutOfRange(f"need 1 <= d <= {MAX_D}")
    if k < 0:
        raise OutOfRange("k must be nonnegative")
    # A certificate that checks returns structure_formula_factors(d, k)
    # itself, so only the closed form is factored.
    expected = elementary_divisors_of(structure_formula_factors(d, k))
    computed = () if _odd_cone_orders(d, 2 * k + 1) is None else expected
    return StructureReport(d, k, computed == expected, computed, expected)


class EvenConeReport(Record):
    __slots__ = ("passed", "computed", "formula_cyclic", "formula_divisors", "orders_match")

    def to_dict(self) -> dict:
        return {
            "check": "even-counterexample",
            "passed": self.passed,
            "computed_elementary_divisors": list(self.computed),
            "formula_cyclic_orders": list(self.formula_cyclic),
            "formula_elementary_divisors": list(self.formula_divisors),
            "orders_match": self.orders_match,
        }


def verify_even_cone_counterexample() -> EvenConeReport:
    """The 2-cone of the square: computed group Z8^2 + Z3, different from the
    formula's Z2 + Z4^2 + Z6 even though the orders agree (192)."""
    from .intlinalg import elementary_divisors_of

    group = sandpile_group(cube_cone(2, 2))
    computed = group.structure.elementary_divisors
    formula_cyclic = (2, 4, 4, 6)
    formula_divisors = elementary_divisors_of(formula_cyclic)
    orders_match = group.order == prod(formula_cyclic)
    passed = (
        computed == (3, 8, 8)
        and computed != formula_divisors
        and orders_match
    )
    return EvenConeReport(passed, computed, formula_cyclic, formula_divisors, orders_match)


class DecompositionReport(Record):
    """K(cone(Q_d)) = (+)_S <s_S> as `verify_decomposition` proves it, with no
    element enumerated; `stripe_orders[w - 1]` is the order at weight w."""

    __slots__ = ("d", "passed", "lattice_diagonal", "stripe_orders")
    element_level = False

    def to_dict(self) -> dict:
        return {
            "check": "decomposition",
            "d": self.d,
            "passed": self.passed,
            "lattice_diagonal": list(self.lattice_diagonal),
            "element_level": self.element_level,
            "stripe_orders": list(self.stripe_orders),
        }


def verify_decomposition(d: int) -> DecompositionReport:
    """Prove K = (+)_S <s_S> over the nonempty S, with |<s_S>| = 2|S| + 1.

    `_odd_cone_orders` at n = 1 gives K = (+)_S <chi_S>, ord(chi_S) = 2|S| + 1.
    The stripe s_S = (d, d - w), w = |S|, has 2 s_S = (2d - w) 1 + w chi_S,
    1 = chi_0 is 0 in K, and 2, w are prime to 2w + 1: s_S generates <chi_S>,
    so L stacked with the stripes has Smith diagonal all ones.  Each weight's
    stripe on the first w coordinates is burned on the cube cone, so the
    printed generators are recurrent; a failed check empties both tuples.
    """
    if not 1 <= d <= MAX_D:
        raise OutOfRange(f"need 1 <= d <= {MAX_D}")
    stripes = (parity_stripe(d, (1,) * w + (0,) * (d - w), d, d - w) for w in range(1, d + 1))
    if (_odd_cone_orders(d, 1) is None
            or not all(map(sandpile_group(cube_cone(d, 1)).is_recurrent, stripes))):
        return DecompositionReport(d, False, (), ())
    return DecompositionReport(d, True, (1,) * (1 << d), tuple(range(3, 2 * d + 2, 2)))


class InvariantFactorReport(Record):
    __slots__ = ("d", "passed", "closed_form", "computed")

    def to_dict(self) -> dict:
        return {
            "check": "if-count",
            "d": self.d,
            "passed": self.passed,
            "closed_form": self.closed_form,
            "computed": self.computed,
        }


def invariant_factor_count(d: int) -> int:
    """Closed form for the number of invariant factors of the cube cone's group:
    6 at d = 4, otherwise the sum of C(d, 1+3i)."""
    if d < 1:
        raise OutOfRange("need d >= 1")
    if d == 4:
        return 6
    return sum(comb(d, 1 + 3 * i) for i in range((d - 1) // 3 + 1))


def verify_invariant_factor_count(d: int) -> InvariantFactorReport:
    """The largest p-rank of the orders `_odd_cone_orders` proves, 0 if it fails
    (a composite p never beats its primes), against the closed form."""
    if not 1 <= d <= MAX_D:
        raise OutOfRange(f"need 1 <= d <= {MAX_D}")
    orders = _odd_cone_orders(d, 1) or ()
    computed = max(sum(o % p == 0 for o in orders) for p in range(2, 2 * d + 2))
    closed = invariant_factor_count(d)
    return InvariantFactorReport(d, closed == computed, closed, computed)
