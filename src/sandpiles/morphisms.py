"""Uniform / weak / directed uniform homomorphisms and the group injections
they induce.

A validated homomorphism is the only way to obtain a UniformHom: every
theorem hypothesis is enforced by the validator, so the induced maps never
have to re-check them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .dynamics import (
    Chips,
    RecurrentConfig,
    SandpileGroup,
    is_recurrent_burning,
    sandpile_group,
)
from .errors import (
    ClauseViolation,
    NotBiregular,
    NotSurjective,
    NotUndirected,
    PreconditionViolated,
    UnknownVertex,
)
from .graphs import Digraph, Multigraph, SinkedGraph, cone, thick_k2_cone

GraphLike = Multigraph | Digraph | SinkedGraph


def _vertices(g: GraphLike) -> tuple[str, ...]:
    return g.graph.vertices if isinstance(g, SinkedGraph) else g.vertices


def _undirected(g: GraphLike) -> Multigraph:
    base = g.graph if isinstance(g, SinkedGraph) else g
    if not isinstance(base, Multigraph):
        raise NotUndirected("uniform/weak homomorphisms need undirected multigraphs")
    return base


def _arc_mult(g: GraphLike, u: str, v: str) -> int:
    """Arc multiplicity in the sandpile digraph view of g."""
    if isinstance(g, SinkedGraph):
        return g.arc_multiplicity(u, v)
    if isinstance(g, Digraph):
        return g.arc_multiplicity(u, v)
    raise NotUndirected(
        "directed validation needs a digraph or a sinked graph to orient edges"
    )


@dataclass(frozen=True)
class VertexMap:
    source: GraphLike
    target: GraphLike
    mapping: Mapping[str, str]

    def __post_init__(self):
        src = set(_vertices(self.source))
        tgt = set(_vertices(self.target))
        missing = src - set(self.mapping)
        if missing:
            raise UnknownVertex(f"map is not total: {sorted(missing)[0]!r} unmapped")
        extra = set(self.mapping) - src
        if extra:
            raise UnknownVertex(f"map mentions unknown vertex {sorted(extra)[0]!r}")
        bad_image = {self.mapping[v] for v in src} - tgt
        if bad_image:
            raise UnknownVertex(f"image vertex {sorted(bad_image)[0]!r} not in target")

    def fiber(self, x: str) -> tuple[str, ...]:
        return tuple(v for v in _vertices(self.source) if self.mapping[v] == x)

    def __call__(self, v: str) -> str:
        return self.mapping[v]


@dataclass(frozen=True)
class UniformHom:
    """A vertex map certified to satisfy the uniform-homomorphism clauses."""

    vertex_map: VertexMap
    subset: frozenset[str]
    kind: str  # "uniform" | "weak" | "directed"
    degree: int | None
    surjective: bool

    @property
    def source(self) -> GraphLike:
        return self.vertex_map.source

    @property
    def target(self) -> GraphLike:
        return self.vertex_map.target

    def __call__(self, v: str) -> str:
        return self.vertex_map(v)


def _edges_within(g: GraphLike, u: str, others: Sequence[str], directed: bool) -> int:
    if directed:
        return sum(_arc_mult(g, u, w) for w in others if w != u)
    base = _undirected(g)
    return sum(base.multiplicity(u, w) for w in others if w != u)


def validate_hom(
    vmap: VertexMap,
    subset: Sequence[str],
    kind: str,
    require_surjective: bool = False,
) -> UniformHom:
    """Certify a vertex map as a subset-uniform homomorphism.

    Raises ClauseViolation naming the first violated clause (fiber-size,
    identity-on-complement, stability, degree-count) with a witness, or
    NotSurjective when surjectivity is requested and a fiber is empty.
    """
    if kind not in ("uniform", "weak", "directed"):
        raise ValueError(f"unknown kind {kind!r}")
    directed = kind == "directed"
    if not directed:
        _undirected(vmap.source)
        _undirected(vmap.target)

    src_vertices = _vertices(vmap.source)
    tgt_vertices = _vertices(vmap.target)
    subset_v = frozenset(subset)
    unknown = subset_v - set(tgt_vertices)
    if unknown:
        raise UnknownVertex(f"subset vertex {sorted(unknown)[0]!r} not in target")
    # Clauses visit the subset in target vertex order, so witnesses are
    # deterministic.
    subset_order = [x for x in tgt_vertices if x in subset_v]

    fibers = {x: vmap.fiber(x) for x in tgt_vertices}
    surjective = all(fibers[x] for x in tgt_vertices)
    if require_surjective and not surjective:
        empty = next(x for x in tgt_vertices if not fibers[x])
        raise NotSurjective(f"fiber over {empty!r} is empty")

    # fiber-size: all fibers over the subset share one cardinality (the degree).
    sizes = {len(fibers[x]) for x in subset_order if fibers[x]}
    degree: int | None
    if directed:
        degree = sizes.pop() if len(sizes) == 1 else None
    else:
        if len(sizes) > 1:
            small = min(subset_order, key=lambda x: len(fibers[x]))
            big = max(subset_order, key=lambda x: len(fibers[x]))
            raise ClauseViolation("fiber-size", (small, len(fibers[small]), big, len(fibers[big])))
        degree = sizes.pop() if sizes else 0

    # identity-on-complement: the restriction away from the subset's fibers is a
    # multiplicity-preserving bijection onto the target complement.
    complement_src = [v for v in src_vertices if vmap(v) not in subset_v]
    complement_tgt = [x for x in tgt_vertices if x not in subset_v]
    images = [vmap(v) for v in complement_src]
    if len(set(images)) != len(images) or (surjective and set(images) != set(complement_tgt)):
        raise ClauseViolation("identity-on-complement", tuple(complement_src))
    for u in complement_src:
        for w in complement_src:
            if u >= w:
                continue
            if directed:
                same = _arc_mult(vmap.source, u, w) == _arc_mult(
                    vmap.target, vmap(u), vmap(w)
                ) and _arc_mult(vmap.source, w, u) == _arc_mult(vmap.target, vmap(w), vmap(u))
            else:
                same = _undirected(vmap.source).multiplicity(u, w) == _undirected(
                    vmap.target
                ).multiplicity(vmap(u), vmap(w))
            if not same:
                raise ClauseViolation("identity-on-complement", (u, w))

    # stability: fibers over the subset are independent sets (uniform kind only;
    # the directed clause at y = x covers its own fibers).
    if kind == "uniform":
        for x in subset_order:
            members = fibers[x]
            for u in members:
                if _edges_within(vmap.source, u, members, directed=False):
                    w = next(
                        w for w in members
                        if w != u and _undirected(vmap.source).multiplicity(u, w)
                    )
                    raise ClauseViolation("stability", (x, u, w))

    # degree-count: every u in a subset fiber sees exactly m_{x,y} edges (arcs)
    # inside each fiber S_y.
    for x in subset_order:
        for u in fibers[x]:
            for y in tgt_vertices:
                if y == x and kind != "directed":
                    continue
                found = _edges_within(vmap.source, u, fibers[y], directed)
                if directed:
                    wanted = _arc_mult(vmap.target, x, y)
                else:
                    wanted = _undirected(vmap.target).multiplicity(x, y)
                if found != wanted:
                    raise ClauseViolation("degree-count", (u, y, found, wanted))

    return UniformHom(vmap, subset_v, kind, degree, surjective)


# -- classical homomorphism classifiers (docs/tests only) -----------------------


def is_graph_homomorphism(vmap: VertexMap) -> bool:
    g = _undirected(vmap.source)
    h = _undirected(vmap.target)
    for u, v, _ in g.edges():
        if h.multiplicity(vmap(u), vmap(v)) == 0:
            return False
    return True


def is_full_homomorphism(vmap: VertexMap) -> bool:
    if not is_graph_homomorphism(vmap):
        return False
    g = _undirected(vmap.source)
    h = _undirected(vmap.target)
    vs = _vertices(vmap.source)
    for i, u in enumerate(vs):
        for v in vs[i + 1 :]:
            if vmap(u) != vmap(v) and h.multiplicity(vmap(u), vmap(v)) and not g.multiplicity(u, v):
                return False
    return True


# -- induced maps on configurations ---------------------------------------------


def _sinked(g: GraphLike, which: str) -> SinkedGraph:
    if not isinstance(g, SinkedGraph):
        raise PreconditionViolated(f"{which} graph carries no sink")
    return g


def _check_sinked_surjection(hom: UniformHom) -> tuple[SinkedGraph, SinkedGraph]:
    """The checks every pullback needs: both graphs carry a sink, the map is
    surjective, and the sink fiber is exactly the source sink."""
    src = _sinked(hom.source, "source")
    tgt = _sinked(hom.target, "target")
    if not hom.surjective:
        raise PreconditionViolated("homomorphism is not surjective")
    if hom.vertex_map.fiber(tgt.sink) != (src.sink,):
        raise PreconditionViolated("sink fiber must be exactly the source sink")
    return src, tgt


def _check_pullback_preconditions(hom: UniformHom) -> tuple[SinkedGraph, SinkedGraph]:
    src, tgt = _check_sinked_surjection(hom)
    if tgt.sink in hom.subset:
        raise PreconditionViolated("target sink must lie outside the subset")
    complement = [x for x in tgt.graph.vertices if x not in hom.subset]
    if not tgt.directed:
        base = tgt.graph
        for i, x in enumerate(complement):
            for y in complement[i + 1 :]:
                if base.multiplicity(x, y):
                    raise PreconditionViolated("target complement is not a stable set")
    return src, tgt


def pullback_config(hom: UniformHom, values: Sequence[int]) -> Chips:
    """Pull a target configuration back along a uniform or weak homomorphism:
    coordinates over the subset copy through, coordinates over the complement
    are scaled by the degree."""
    if hom.kind not in ("uniform", "weak"):
        raise PreconditionViolated("pullback_config needs a uniform or weak homomorphism")
    src, tgt = _check_pullback_preconditions(hom)
    if len(values) != tgt.n_nonsink:
        raise PreconditionViolated("configuration length does not match target")
    out = []
    for v in src.nonsink_order:
        fv = hom(v)
        x = values[tgt.nonsink_index(fv)]
        out.append(x if fv in hom.subset else hom.degree * x)
    return tuple(out)


def pullback_recurrent(hom: UniformHom, c: RecurrentConfig) -> RecurrentConfig:
    """Uniform homomorphisms send recurrents to recurrents; certify by burning."""
    if hom.kind != "uniform":
        raise PreconditionViolated("recurrence is preserved by the uniform kind only")
    src, tgt = _check_pullback_preconditions(hom)
    if c.graph != tgt:
        raise PreconditionViolated("configuration lives on a different graph")
    values = pullback_config(hom, c.values)
    ok, order = is_recurrent_burning(src, values)
    if not ok:
        raise PreconditionViolated("pullback of a recurrent failed the burning test")
    return RecurrentConfig(src, values, "burning", order)


def pullback_representative(hom: UniformHom, c: RecurrentConfig) -> RecurrentConfig:
    """Weak homomorphisms compose the raw pullback with the class representative."""
    src, tgt = _check_pullback_preconditions(hom)
    if c.graph != tgt:
        raise PreconditionViolated("configuration lives on a different graph")
    return sandpile_group(src).representative(pullback_config(hom, c.values))


def pullback_chips(hom: UniformHom, x: Sequence[int]) -> Chips:
    """Directed pullback: plain coordinate copy (no degree factor)."""
    if hom.kind != "directed":
        raise PreconditionViolated("pullback_chips needs a directed homomorphism")
    src, tgt = _check_sinked_surjection(hom)
    if len(x) != tgt.n_nonsink:
        raise PreconditionViolated("vector length does not match target")
    return tuple(x[tgt.nonsink_index(hom(v))] for v in src.nonsink_order)


def induced_map(hom: UniformHom, c: RecurrentConfig) -> RecurrentConfig:
    """The public induced group map: direct pullback for uniform homs, pullback
    followed by the recurrent representative for weak ones."""
    if hom.kind == "uniform":
        return pullback_recurrent(hom, c)
    if hom.kind == "weak":
        return pullback_representative(hom, c)
    raise PreconditionViolated("directed homs act on chip vectors; use pullback_chips")


# -- verification ----------------------------------------------------------------


@dataclass(frozen=True)
class VerifyLimits:
    """Bounds for injection verification; enumeration below, sampling above."""

    enumerate_bound: int = 10**4
    pair_bound: int = 20000
    sample_pairs: int = 100
    seed: int = 7


@dataclass(frozen=True)
class InjectionReport:
    passed: bool
    mode: str
    image_order: int | None
    checked_pairs: int
    recurrent_images: bool | None
    witness: tuple | None = None
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "mode": self.mode,
            "image_order": self.image_order,
            "checked_pairs": self.checked_pairs,
            "recurrent_images": self.recurrent_images,
            "witness": list(self.witness) if self.witness else None,
            "note": self.note,
        }


def _sample_chip_vectors(n: int, count: int, rng: random.Random) -> list[tuple[int, ...]]:
    return [tuple(rng.randrange(-6, 7) for _ in range(n)) for _ in range(count)]


def verify_group_injection(
    hom: UniformHom, limits: VerifyLimits = VerifyLimits()
) -> InjectionReport:
    """Check that the induced map is an injective group homomorphism.

    For uniform/weak homs with an enumerable source group: image recurrence
    (uniform kind), the homomorphism law on pairs, and pairwise-distinct
    images.  Directed homs are verified at the lattice level: membership is
    preserved and reflected, and the image has |SP(target)| distinct classes.
    """
    src = _sinked(hom.source, "source")
    tgt = _sinked(hom.target, "target")
    g_src = sandpile_group(src)
    g_tgt = sandpile_group(tgt)
    rng = random.Random(limits.seed)

    if hom.kind in ("uniform", "weak"):
        order_src = g_src.order
        order_tgt = g_tgt.order
        if order_src > limits.enumerate_bound or order_tgt > limits.enumerate_bound:
            return _verify_injection_sampled(hom, g_src, g_tgt, limits, rng)
        recs = sorted(g_tgt.recurrents())
        images: dict[Chips, Chips] = {}
        recurrent_ok = True
        for c in recs:
            rc = RecurrentConfig(tgt, c, "orbit")
            img = induced_map(hom, rc)
            if hom.kind == "uniform" and not g_src.is_recurrent(img.values):
                return InjectionReport(False, "enumerated", None, 0, False, witness=(c,))
            images[c] = img.values
        if len(set(images.values())) != len(images):
            seen: dict[Chips, Chips] = {}
            for c, img in images.items():
                if img in seen:
                    return InjectionReport(
                        False, "enumerated", None, 0, recurrent_ok, witness=(seen[img], c)
                    )
                seen[img] = c
        pairs = [(a, b) for a in recs for b in recs]
        if len(pairs) > limits.pair_bound:
            pairs = [
                (recs[rng.randrange(len(recs))], recs[rng.randrange(len(recs))])
                for _ in range(limits.sample_pairs)
            ]
        for a, b in pairs:
            lhs = induced_map(hom, RecurrentConfig(tgt, g_tgt.add_values(a, b), "orbit"))
            rhs = g_src.add_values(images[a], images[b])
            if lhs.values != rhs:
                return InjectionReport(
                    False, "enumerated", None, len(pairs), recurrent_ok, witness=(a, b)
                )
        return InjectionReport(
            True, "enumerated", len(images), len(pairs), recurrent_ok,
            note=f"image is a subgroup of order {len(images)} inside order {order_src}",
        )

    # Directed kind, verified at the cokernel level.  The coordinate pullback
    # intertwines the untransposed reduced Laplacians (L_src f(z) = f(L_tgt z)),
    # so membership lives in the column lattices of L; those agree with Im L^T
    # exactly when the graph is undirected.  Intertwining on the basis plus
    # nonsingularity plus coordinate-surjectivity already force injectivity;
    # the sampled equivalence below is a belt-and-braces re-check.
    from .intlinalg import LatticeSolver

    g_tgt.order, g_src.order  # both nonsingular
    l_tgt = g_tgt.reduced_laplacian
    l_src = g_src.reduced_laplacian
    col_tgt = LatticeSolver(l_tgt.transpose())
    col_src = LatticeSolver(l_src.transpose())
    n = tgt.n_nonsink
    for j in range(n):
        column = tuple(l_tgt.entries[i][j] for i in range(n))
        fiber_indicator = pullback_chips(hom, tuple(1 if i == j else 0 for i in range(n)))
        lhs = pullback_chips(hom, column)
        rhs = l_src.mul_vector(fiber_indicator)
        if lhs != rhs:
            return InjectionReport(False, "lattice", None, 0, None, witness=(column,))
    checked = 0
    for x in _sample_chip_vectors(n, limits.sample_pairs, rng):
        in_tgt = col_tgt.solve(x) is not None
        in_src = col_src.solve(pullback_chips(hom, x)) is not None
        if in_tgt != in_src:
            return InjectionReport(False, "lattice", None, checked, None, witness=(x,))
        checked += 1
    return InjectionReport(
        True, "lattice", g_tgt.order, checked, None,
        note="cokernel-level verification; image order is the full target group",
    )


def _verify_injection_sampled(hom, g_src, g_tgt, limits, rng) -> InjectionReport:
    tgt = g_tgt.graph
    n = tgt.n_nonsink
    basis = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    seeds = basis + _sample_chip_vectors(n, limits.sample_pairs, rng)
    elements = [g_tgt.representative(x) for x in seeds]
    images = [induced_map(hom, c) for c in elements]
    for c, img in zip(elements, images):
        if hom.kind == "uniform" and not g_src.is_recurrent(img.values):
            return InjectionReport(False, "sampled", None, 0, False, witness=(c.values,))
    checked = 0
    for _ in range(limits.sample_pairs):
        a = elements[rng.randrange(len(elements))]
        b = elements[rng.randrange(len(elements))]
        lhs = induced_map(hom, g_tgt.add(a, b))
        rhs = g_src.add_values(
            images[elements.index(a)].values, images[elements.index(b)].values
        )
        if lhs.values != rhs:
            return InjectionReport(False, "sampled", None, checked, None, witness=(a.values, b.values))
        checked += 1
    # Each element is a burning-certified recurrent, the unique one in its
    # class, so distinct classes are exactly distinct values.
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            distinct_src = elements[i].values != elements[j].values
            distinct_img = images[i].values != images[j].values
            if distinct_src and not distinct_img:
                return InjectionReport(
                    False, "sampled", None, checked, None,
                    witness=(elements[i].values, elements[j].values),
                )
    return InjectionReport(True, "sampled", None, checked, None, note="sampled verification")


# -- the bipartite collapse of biregular graphs ----------------------------------


def bipartite_collapse_hom(
    b: Multigraph, bipartition: tuple[Sequence[str], Sequence[str]]
) -> UniformHom:
    """Collapse a biregular bipartite graph's cone onto the thick two-vertex cone.

    Vertices of the first class map to v1, the second to v2, sink to sink;
    uniform when the two degrees agree, directed otherwise.
    """
    v1, v2 = (list(part) for part in bipartition)
    if set(v1) | set(v2) != set(b.vertices) or set(v1) & set(v2):
        raise NotBiregular("bipartition must partition the vertex set")
    for part in (v1, v2):
        for i, u in enumerate(part):
            for w in part[i + 1 :]:
                if b.multiplicity(u, w):
                    raise NotBiregular(f"edge inside one class: {u}{w}")
    degrees1 = {b.degree(u) for u in v1}
    degrees2 = {b.degree(u) for u in v2}
    if len(degrees1) != 1 or len(degrees2) != 1:
        raise NotBiregular(f"classes are not regular: {sorted(degrees1)}, {sorted(degrees2)}")
    r, t = degrees1.pop(), degrees2.pop()

    src = cone(b, 1)
    tgt = thick_k2_cone(r, t)
    mapping = {u: "v1" for u in v1}
    mapping.update({u: "v2" for u in v2})
    mapping[src.sink] = tgt.sink
    kind = "uniform" if r == t else "directed"
    vmap = VertexMap(src, tgt, mapping)
    return validate_hom(vmap, ["v1", "v2"], kind, require_surjective=True)
