"""Uniform / weak / directed uniform homomorphisms and the group injections
they induce.

A validated homomorphism is the only way to obtain a UniformHom: every
theorem hypothesis is enforced by the validator, so the induced maps never
have to re-check them.  The validator reads the map once and then only the
graphs' index rows, in O(V + E).

`pullback` is the one linear map behind every kind: each source coordinate
copies the coordinate of its image, scaled by the degree over the
complement of the subset for the uniform and weak kinds.  `induced_map`
turns it into the map on recurrents, and verify_group_injection proves the
paper's main theorem for one homomorphism: the pullback maps the target's
relations into the source lattice, and the index of the source lattice in
the lattice it spans together with the pulled-back unit vectors equals the
order of the target group, so the induced map is injective.

The classes.  SandpileGroup works in K = Z^n / Im L^T, the chip vectors
modulo topplings (the rows of L).  The uniform and weak kinds need
undirected graphs, where L = L^T, so their maps act on K.  The directed
kind intertwines P L_tgt = L_src P, so it maps the column quotient
Z^n / Im L_tgt into Z^m / Im L_src.  Both quotients share the invariant
factors of L, but on a digraph target they are different quotients: two
chip vectors congruent in K(target) may pull back to classes that differ.
"""

from __future__ import annotations

from math import prod
from typing import Mapping, Sequence

from ._record import Record
from .dynamics import Chips, RecurrentConfig, sandpile_group
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

HOM_KINDS = ("uniform", "weak", "directed")


def _vertices(g: GraphLike) -> tuple[str, ...]:
    return g.graph.vertices if isinstance(g, SinkedGraph) else g.vertices


def _rows(g: GraphLike, directed: bool) -> tuple[tuple[str, ...], list[dict[int, int]]]:
    """The vertices and the index rows the clauses read: the multigraph's for
    the uniform and weak kinds, the sandpile digraph view's for the directed
    kind (an undirected sink's row is empty), which a plain Multigraph lacks."""
    base = g.graph if isinstance(g, SinkedGraph) else g
    if not directed and not isinstance(base, Multigraph):
        raise NotUndirected("uniform/weak homomorphisms need undirected multigraphs")
    if directed and isinstance(g, Multigraph):
        raise NotUndirected("directed validation needs a digraph or a sinked graph"
                            " to orient edges")
    rows = [dict(base.row(i)) for i in range(base.n)]
    if directed and isinstance(g, SinkedGraph) and not g.directed:
        rows[base.index(g.sink)] = {}
    return base.vertices, rows


def _differ(found: dict[int, int], wanted: dict[int, int]) -> list[int]:
    return [y for y in found.keys() | wanted.keys() if found.get(y, 0) != wanted.get(y, 0)]


class VertexMap(Record):
    """A total map from the source's vertices into the target's."""

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source: GraphLike, target: GraphLike, mapping: Mapping[str, str]):
        src = set(_vertices(source))
        tgt = set(_vertices(target))
        missing = src - set(mapping)
        if missing:
            raise UnknownVertex(f"map is not total: {sorted(missing)[0]!r} unmapped")
        extra = set(mapping) - src
        if extra:
            raise UnknownVertex(f"map mentions unknown vertex {sorted(extra)[0]!r}")
        bad_image = {mapping[v] for v in src} - tgt
        if bad_image:
            raise UnknownVertex(f"image vertex {sorted(bad_image)[0]!r} not in target")
        super().__init__(source, target, mapping)

    def fiber(self, x: str) -> tuple[str, ...]:
        return tuple(v for v in _vertices(self.source) if self.mapping[v] == x)

    def __call__(self, v: str) -> str:
        return self.mapping[v]


class UniformHom(Record):
    """A vertex map certified to satisfy the uniform-homomorphism clauses;
    kind is one of HOM_KINDS."""

    __slots__ = ("vertex_map", "subset", "kind", "degree", "surjective")

    @property
    def source(self) -> GraphLike:
        return self.vertex_map.source

    @property
    def target(self) -> GraphLike:
        return self.vertex_map.target

    def __call__(self, v: str) -> str:
        return self.vertex_map(v)


def validate_hom(
    vmap: VertexMap,
    subset: Sequence[str],
    kind: str,
    require_surjective: bool = False,
) -> UniformHom:
    """Certify a vertex map as a subset-uniform homomorphism, in O(V + E).

    Raises ClauseViolation naming the first violated clause (fiber-size,
    identity-on-complement, stability, degree-count) with a witness, or
    NotSurjective when surjectivity is requested and a fiber is empty.  A
    graph without the kind's rows (`_rows`) is refused before any clause.
    """
    if kind not in HOM_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    directed = kind == "directed"
    src_vertices, src_rows = _rows(vmap.source, directed)
    tgt_vertices, tgt_rows = _rows(vmap.target, directed)
    tgt_index = {x: j for j, x in enumerate(tgt_vertices)}
    subset_v = frozenset(subset)
    unknown = subset_v - tgt_index.keys()
    if unknown:
        raise UnknownVertex(f"subset vertex {sorted(unknown)[0]!r} not in target")
    # The map read once: each source vertex's image, fiber and edges into each fiber.
    image = [tgt_index[vmap.mapping[v]] for v in src_vertices]
    fibers: list[list[int]] = [[] for _ in tgt_vertices]
    tallies: list[dict[int, int]] = [{} for _ in src_vertices]
    for i, row in enumerate(src_rows):
        fibers[image[i]].append(i)
        for k, m in row.items():
            tallies[i][image[k]] = tallies[i].get(image[k], 0) + m
    surjective = all(fibers)
    if require_surjective and not surjective:
        raise NotSurjective(f"fiber over {tgt_vertices[fibers.index([])]!r} is empty")
    # Clauses visit the subset in target vertex order and each fiber in
    # source vertex order, so witnesses are deterministic.
    subset_order = [j for j, x in enumerate(tgt_vertices) if x in subset_v]
    members = [(j, i) for j in subset_order for i in fibers[j]]

    # fiber-size: all fibers over the subset share one cardinality (the degree).
    # Directed fibers may differ, and then the map has no degree.
    sizes = {len(fibers[j]) for j in subset_order if fibers[j]}
    if len(sizes) > 1 and not directed:
        small = min(subset_order, key=lambda j: len(fibers[j]))
        big = max(subset_order, key=lambda j: len(fibers[j]))
        raise ClauseViolation("fiber-size", (tgt_vertices[small], len(fibers[small]),
                                             tgt_vertices[big], len(fibers[big])))
    degree = sizes.pop() if len(sizes) == 1 else (None if directed else 0)

    # identity-on-complement: away from the subset's fibers the map is injective and
    # keeps multiplicities.  Witness: the least broken pair, label-smaller vertex first.
    complement = [i for i, j in enumerate(image) if tgt_vertices[j] not in subset_v]
    preimage = {image[i]: i for i in complement}
    if len(preimage) != len(complement):
        raise ClauseViolation("identity-on-complement", tuple(src_vertices[i] for i in complement))
    broken = [sorted((i, preimage[y]), key=src_vertices.__getitem__) for i in complement
              for y in _differ(tallies[i], tgt_rows[image[i]]) if y in preimage]
    if broken:
        raise ClauseViolation("identity-on-complement",
                              tuple(src_vertices[i] for i in min(broken)))

    # stability: fibers over the subset are independent sets (uniform kind only;
    # the directed clause at y = x covers its own fibers).
    if kind == "uniform":
        for j, i in members:
            if j in tallies[i]:
                w = next(src_vertices[k] for k in src_rows[i] if image[k] == j)
                raise ClauseViolation("stability", (tgt_vertices[j], src_vertices[i], w))

    # degree-count: every u in a subset fiber S_x sees exactly m_{x,y} edges
    # (arcs) inside each fiber S_y, y != x for the uniform and weak kinds.
    for j, i in members:
        found, wanted = tallies[i], tgt_rows[j]
        y = min((y for y in _differ(found, wanted) if directed or y != j), default=None)
        if y is not None:
            raise ClauseViolation("degree-count", (src_vertices[i], tgt_vertices[y],
                                                   found.get(y, 0), wanted.get(y, 0)))

    return UniformHom(vmap, subset_v, kind, degree, surjective)


# -- induced maps on configurations ---------------------------------------------


def _sinked(g: GraphLike, which: str) -> SinkedGraph:
    if not isinstance(g, SinkedGraph):
        raise PreconditionViolated(f"{which} graph carries no sink")
    return g


def _pullback_preconditions(hom: UniformHom) -> tuple[SinkedGraph, SinkedGraph]:
    """The checks every pullback needs: both graphs carry a sink, the map is
    surjective and the sink fiber is exactly the source sink.  The uniform
    and weak kinds also need the target sink outside the subset and a stable
    target complement."""
    src = _sinked(hom.source, "source")
    tgt = _sinked(hom.target, "target")
    if not hom.surjective:
        raise PreconditionViolated("homomorphism is not surjective")
    if hom.vertex_map.fiber(tgt.sink) != (src.sink,):
        raise PreconditionViolated("sink fiber must be exactly the source sink")
    if hom.kind != "directed":
        if tgt.sink in hom.subset:
            raise PreconditionViolated("target sink must lie outside the subset")
        complement = {i for i, x in enumerate(tgt.graph.vertices) if x not in hom.subset}
        if any(k in complement for i in complement for k, _ in tgt.graph.row(i)):
            raise PreconditionViolated("target complement is not a stable set")
    return src, tgt


def pullback(hom: UniformHom, x: Sequence[int]) -> Chips:
    """Pull a target chip vector back along hom: each source coordinate copies
    the coordinate of its image, times the degree when the image lies outside
    the subset (uniform and weak kinds; the directed kind copies plainly).

    The uniform and weak pullbacks respect chip classes Z^n / Im L^T.  The
    directed one respects the column classes Z^n / Im L instead, which on a
    digraph target are not the classes of `congruent` (module docstring)."""
    src, tgt = _pullback_preconditions(hom)
    if len(x) != tgt.n_nonsink:
        raise PreconditionViolated("vector length does not match target")
    scale = 1 if hom.kind == "directed" else hom.degree
    out = []
    for v in src.nonsink_order:
        fv = hom(v)
        value = x[tgt.nonsink_index(fv)]
        out.append(value if fv in hom.subset else scale * value)
    return tuple(out)


def induced_map(hom: UniformHom, c: RecurrentConfig) -> RecurrentConfig:
    """The induced group map K(target) -> K(source) on recurrents.  A uniform
    hom sends recurrents to recurrents, certified by burning; a weak one
    needs the recurrent representative of the pullback.  Directed homs act
    on chip vectors only, through `pullback`: they are maps on the column
    quotient Z^n / Im L, which the target's recurrents do not represent on a
    digraph (module docstring)."""
    if hom.kind == "directed":
        raise PreconditionViolated("directed homs act on chip vectors; use pullback")
    src, tgt = _pullback_preconditions(hom)
    if c.graph != tgt:
        raise PreconditionViolated("configuration lives on a different graph")
    values = pullback(hom, c.values)
    group = sandpile_group(src)
    if hom.kind == "weak":
        return group.representative(values)
    if not group.is_recurrent(values):
        raise PreconditionViolated("pullback of a recurrent failed the burning test")
    return RecurrentConfig(src, values, "burning")


# -- verification ----------------------------------------------------------------


class InjectionReport(Record):
    __slots__ = ("passed", "image_order", "recurrent_images", "witness", "note")
    # The one route: every report is a lattice-index proof.
    mode = "lattice"

    def __init__(self, passed: bool, image_order: int | None, recurrent_images: bool | None,
                 witness: tuple | None = None, note: str = ""):
        super().__init__(passed, image_order, recurrent_images, witness, note)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "mode": self.mode,
            "image_order": self.image_order,
            "recurrent_images": self.recurrent_images,
            "witness": list(self.witness) if self.witness else None,
            "note": self.note,
        }


def verify_group_injection(hom: UniformHom) -> InjectionReport:
    """Prove that the induced map K(target) -> K(source) is an injective group
    homomorphism, by one lattice index.

    Let P be `pullback`, the one linear map for every kind.  P is a
    well-defined homomorphism on classes once it sends every relation of the
    target into the source lattice: for the directed kind
    P(L_tgt e_j) = L_src P(e_j) exactly, for the uniform and weak kinds
    P(L_tgt e_j) has a witness in Im L_src^T.
    Its image is then generated by the classes of P(e_1), ..., P(e_n) and has
    order |K(source)| / |coker [L_src; P(e_1); ...; P(e_n)]|, one cokernel
    diagonal modulo the source exponent; the map is injective exactly when
    that order is |K(target)|.  For the uniform kind `induced_map` must also
    take the recurrent representatives of the target's unit vectors, which
    generate K(target), to recurrents that pass the burning test.

    For the directed kind the classes are those of the column quotients
    Z^n / Im L (module docstring): the stack holds the columns of L_src, and
    the injection proved is of Z^n / Im L_tgt.  That has the order of
    K(target), so passed and image_order read the same, but on a digraph
    target its classes are not the chip classes of K(target).
    """
    from .intlinalg import IntMatrix, cokernel_diagonal

    src = _sinked(hom.source, "source")
    tgt = _sinked(hom.target, "target")
    g_src = sandpile_group(src)
    g_tgt = sandpile_group(tgt)
    directed = hom.kind == "directed"
    l_src = g_src.reduced_laplacian
    n = tgt.n_nonsink
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    images = [pullback(hom, u) for u in units]

    # Columns of L are its rows on the undirected graphs that the uniform
    # and weak kinds require, so one column lattice serves every kind.
    for column, image in zip(g_tgt.reduced_laplacian.transpose().entries, images):
        relation = pullback(hom, column)
        if directed:
            held = relation == l_src.mul_vector(image)
        else:
            held = g_src.in_image(relation) is not None
        if not held:
            return InjectionReport(False, None, None, witness=(column,))

    # exponent * Z^n lies in the column lattice of L_src, so it is a valid
    # modulus for the stack.
    exponent = max(g_src.structure.invariant_factors, default=1)
    stacked = IntMatrix.from_rows(l_src.transpose().entries + tuple(images))
    image_order = g_src.order // prod(cokernel_diagonal(stacked, exponent))
    note = f"image is a subgroup of order {image_order} inside order {g_src.order}"

    recurrent_images = None
    if hom.kind == "uniform":
        for u in units:
            rep = g_tgt.representative(u)
            try:
                induced_map(hom, rep)
            except PreconditionViolated:
                return InjectionReport(False, image_order, False, witness=(rep.values,), note=note)
        recurrent_images = True
    return InjectionReport(image_order == g_tgt.order, image_order, recurrent_images, note=note)


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
        indices = {b.index(u) for u in part}
        for u in part:
            inside = {k for k, _ in b.row(b.index(u)) if k in indices}
            if inside:
                w = next(w for w in part if b.index(w) in inside)
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
