"""Multigraphs, digraphs, and the sinked graphs all sandpile dynamics run on.

Vertices are opaque string labels; vertex order is insertion order and stays
stable across every derived matrix and vector.  The only stored form of a
graph is one sparse adjacency row per vertex, mapping each neighbour index to
its multiplicity in ascending index order, so building a graph costs O(V + E)
and no n x n matrix exists here.  `intlinalg.laplacian` and
`intlinalg.reduced_laplacian` are the only places that fill dense rows.  All
graph values are immutable after construction, so Laplacians, determinants
and lattice solvers can be cached per graph object.

Labels and edges from outside enter only through the graph constructors,
which check them.  The derived constructors (`cone`, `subcube` and so
`hypercube`, `cartesian_product`) reuse the validated index rows of the
graphs they start from and build the new rows by index arithmetic, with no
label lookup and no second validation; only their labels are checked.
"""

from __future__ import annotations

from collections import deque
from typing import ItemsView, Iterable, Sequence, Union

from .errors import (
    DisconnectedGraph,
    EmptyContractionSet,
    LoopEdge,
    NoGlobalSink,
    NonPositiveMultiplicity,
    UnknownVertex,
)


class _Graph:
    """Labelled vertices and one sparse adjacency row per vertex.

    Row i maps each neighbour index j to the multiplicity of (i, j), in
    ascending j, and holds no zero multiplicities.  Subclasses decide whether
    an edge (u, v, m) is stored in both rows or in u's row only.
    """

    __slots__ = ("vertices", "_index", "_rows", "_hash")
    _noun = "edge"
    _symmetric = False  # whether (u, v, m) is stored in v's row too

    def __init__(self, vertices: Sequence[str], edges: Iterable[tuple[str, str, int]]):
        """Multiplicities of repeated (u, v) entries accumulate."""
        self._set_vertices(vertices)
        index = self._index
        rows: list[dict[int, int]] = [{} for _ in index]
        symmetric = self._symmetric
        for u, v, m in edges:
            i = index.get(u)
            j = index.get(v)
            if i is None or j is None:
                missing = u if i is None else v
                raise UnknownVertex(f"{self._noun} endpoint {missing!r} not declared")
            if i == j:
                raise LoopEdge(f"loop at {u}")
            if m < 1:
                raise NonPositiveMultiplicity(f"multiplicity {m} on {self._noun} ({u},{v})")
            row = rows[i]
            row[j] = row.get(j, 0) + m
            if symmetric:
                row = rows[j]
                row[i] = row.get(i, 0) + m
        self._set_rows([dict(sorted(row.items())) for row in rows])

    @classmethod
    def _from_rows(cls, vertices: Sequence[str], rows: list[dict[int, int]]):
        """The graph with these labels and index rows.  The rows come from
        graphs already built, so they are taken as they are: ascending, with
        no loops and positive multiplicities (symmetric for a Multigraph).
        Only the labels are checked, as __init__ checks them."""
        graph = object.__new__(cls)
        graph._set_vertices(vertices)
        graph._set_rows(rows)
        return graph

    def _set_vertices(self, vertices: Sequence[str]) -> None:
        self.vertices = tuple(vertices)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        if len(self._index) != len(self.vertices):
            raise UnknownVertex("duplicate vertex labels")

    def _set_rows(self, rows: list[dict[int, int]]) -> None:
        self._rows = tuple(rows)
        # Equal graphs list equal rows in the same (ascending) order, so the
        # rows' keys and values, taken apart, hash them without a pair tuple
        # per entry.
        self._hash = hash((self.vertices, tuple(map(tuple, rows)),
                           tuple(tuple(row.values()) for row in rows)))

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertex(v) from None

    def row(self, i: int) -> ItemsView[int, int]:
        """(neighbour index, multiplicity) pairs of vertex i, neighbours ascending."""
        return self._rows[i].items()

    def _multiplicity(self, u: str, v: str) -> int:
        return self._rows[self.index(u)].get(self.index(v), 0)

    def _degree(self, v: str) -> int:
        return sum(self._rows[self.index(v)].values())

    def _pairs(self, upper: bool) -> list[tuple[str, str, int]]:
        vs = self.vertices
        return [
            (vs[i], vs[j], m)
            for i, row in enumerate(self._rows)
            for j, m in row.items()
            if j > i or not upper
        ]

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.vertices == other.vertices
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return self._hash


class Multigraph(_Graph):
    """Loop-free undirected graph with integer edge multiplicities."""

    __slots__ = ()
    _symmetric = True

    multiplicity = _Graph._multiplicity
    degree = _Graph._degree

    def edges(self) -> list[tuple[str, str, int]]:
        """All edges as (u, v, multiplicity) with u before v in vertex order."""
        return self._pairs(upper=True)

    def is_connected(self) -> bool:
        return self.n == 0 or _reach_count(0, self._rows) == self.n

    def __repr__(self) -> str:
        return f"Multigraph({len(self.vertices)} vertices, {len(self.edges())} edge classes)"


class Digraph(_Graph):
    """Loop-free directed graph with integer arc multiplicities."""

    __slots__ = ()
    _noun = "arc"

    arc_multiplicity = _Graph._multiplicity
    out_degree = _Graph._degree

    def arcs(self) -> list[tuple[str, str, int]]:
        return self._pairs(upper=False)

    def __repr__(self) -> str:
        return f"Digraph({len(self.vertices)} vertices)"


def _reach_count(start: int, neighbours: Sequence[Iterable[int]]) -> int:
    """Number of vertices reachable from start, by BFS over neighbour lists."""
    seen = {start}
    queue = deque([start])
    while queue:
        for j in neighbours[queue.popleft()]:
            if j not in seen:
                seen.add(j)
                queue.append(j)
    return len(seen)


AnyGraph = Union[Multigraph, Digraph]


class SinkedGraph:
    """A multigraph or digraph with a designated sink and fixed vertex order.

    For digraphs the sink must be a global sink (out-degree zero, reachable
    from every vertex); this is validated at construction.  Undirected graphs
    are allowed to be disconnected at construction time; dynamics and group
    computations reject them where the spec of the operation requires it.
    """

    __slots__ = (
        "graph",
        "sink",
        "nonsink_order",
        "directed",
        "out_degrees",
        "sink_mult",
        "n_arcs",
        "_adjacency",
        "_nonsink_index",
        "_connected",
    )

    def __init__(self, graph: AnyGraph, sink: str):
        self.graph = graph
        self.sink = sink
        sink_i = graph.index(sink)
        self.directed = isinstance(graph, Digraph)
        self.nonsink_order = graph.vertices[:sink_i] + graph.vertices[sink_i + 1:]
        self._nonsink_index = {v: i for i, v in enumerate(self.nonsink_order)}
        rows = graph._rows[:sink_i] + graph._rows[sink_i + 1:]
        self.out_degrees = tuple(sum(row.values()) for row in rows)
        self.sink_mult = tuple(row.get(sink_i, 0) for row in rows)
        # Adjacency among non-sink vertices only; chips sent to the sink
        # vanish.  The non-sink index of graph index j is shift[j]: j, or
        # j - 1 past the sink.
        shift = [*range(sink_i), None, *range(sink_i, graph.n - 1)]
        self._adjacency = tuple(
            tuple((shift[j], m) for j, m in row.items() if j != sink_i) for row in rows
        )
        # The entries of adjacency(): an edge between non-sink vertices
        # counts once from each end.
        self.n_arcs = sum(map(len, self._adjacency))

        if self.directed:
            if graph._rows[sink_i]:
                raise NoGlobalSink(f"{sink} has outgoing arcs")
            # BFS along reversed arcs from the sink.
            preds: list[list[int]] = [[] for _ in graph._rows]
            for i, row in enumerate(graph._rows):
                for j in row:
                    preds[j].append(i)
            if _reach_count(sink_i, preds) != graph.n:
                raise NoGlobalSink(f"{sink} is not reachable from every vertex")
            self._connected = True
        else:
            # A graph whose every vertex has an edge to the sink is
            # connected, a cone among them, so only the others need the BFS.
            self._connected = all(self.sink_mult) or graph.is_connected()

    @property
    def connected(self) -> bool:
        return self._connected

    @property
    def n_nonsink(self) -> int:
        return len(self.nonsink_order)

    def nonsink_index(self, v: str) -> int:
        try:
            return self._nonsink_index[v]
        except KeyError:
            raise UnknownVertex(v) from None

    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return self._adjacency

    def fire(self, y: Sequence[int]) -> list[int]:
        """L^T y, the chips that firing each vertex v y_v times removes from v
        (net of what it receives), by one pass over the arcs."""
        moved = [d * k for d, k in zip(self.out_degrees, y)]
        for k, row in zip(y, self._adjacency):
            if k:
                for j, m in row:
                    moved[j] -= m * k
        return moved

    def arc_multiplicity(self, u: str, v: str) -> int:
        """Arc multiplicity in the sandpile digraph of this graph.

        For a digraph this is the stored arc count.  For an undirected graph
        it is the count in the associated sink digraph: every non-sink edge
        yields arcs both ways, edges at the sink point into the sink only.
        """
        if self.directed:
            return self.graph.arc_multiplicity(u, v)
        if u == self.sink:
            return 0
        return self.graph.multiplicity(u, v)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SinkedGraph)
            and self.graph == other.graph
            and self.sink == other.sink
        )

    def __hash__(self) -> int:
        return hash((self.graph, self.sink))

    def __repr__(self) -> str:
        kind = "digraph" if self.directed else "multigraph"
        return f"SinkedGraph({kind}, {len(self.nonsink_order)}+1 vertices, sink={self.sink!r})"


# -- constructors -------------------------------------------------------------


def build_multigraph(
    vertices: Sequence[str], edges: Iterable[tuple[str, str, int]]
) -> Multigraph:
    """Build a multigraph; multiplicities of repeated (u, v) entries accumulate."""
    return Multigraph(vertices, edges)


def build_digraph(
    vertices: Sequence[str], arcs: Iterable[tuple[str, str, int]]
) -> Digraph:
    return Digraph(vertices, arcs)


def fresh_label(base: str, taken: Iterable[str]) -> str:
    taken = set(taken)
    if base not in taken:
        return base
    k = 1
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"


def cone(g: Multigraph, n: int = 1) -> SinkedGraph:
    """The n-cone: a fresh sink joined to every vertex of g by n parallel edges.
    The sink is labelled "s", or the first of "s1", "s2", ... not taken; it
    takes the last index, so appending it keeps each row of g ascending."""
    if not isinstance(g, Multigraph):
        raise TypeError(f"cone needs a Multigraph, got {type(g).__name__}")
    if n < 1:
        raise NonPositiveMultiplicity(f"cone needs n >= 1, got {n}")
    sink = fresh_label("s", g.vertices)
    k = g.n
    rows = [{**row, k: n} for row in g._rows]
    rows.append(dict.fromkeys(range(k), n))
    return SinkedGraph(Multigraph._from_rows(g.vertices + (sink,), rows), sink)


def cartesian_product(g: Multigraph, h: Multigraph) -> Multigraph:
    """Cartesian product; vertex (u_i, v_j) sits at index j*|V(g)| + i.

    The first factor's index varies fastest, so iterated products of two-vertex
    graphs enumerate bit tuples with coordinate 1 first.  The row of (u_i, v_j)
    lists the h-neighbours in earlier blocks, then the g-neighbours in block j,
    then the h-neighbours in later blocks, which keeps it ascending.
    """
    for factor in (g, h):
        if not isinstance(factor, Multigraph):
            raise TypeError(f"cartesian_product needs Multigraphs, got {type(factor).__name__}")
    gn = g.n
    vertices = [f"({u},{v})" for v in h.vertices for u in g.vertices]
    rows = []
    for j, h_row in enumerate(h._rows):
        base = j * gn
        before = [(j2 * gn, m) for j2, m in h_row.items() if j2 < j]
        after = [(j2 * gn, m) for j2, m in h_row.items() if j2 > j]
        for i, g_row in enumerate(g._rows):
            row = {b + i: m for b, m in before}
            row.update({base + i2: m for i2, m in g_row.items()})
            row.update({b + i: m for b, m in after})
            rows.append(row)
    return Multigraph._from_rows(vertices, rows)


def hypercube_label(x: int, d: int) -> str:
    # The d bits of x, least significant first: the binary digits of
    # x + 2^d read backwards, stopping before the leading 1.
    return "v" + bin(x | 1 << d)[:2:-1]


def hypercube(d: int) -> Multigraph:
    """Dimension-d cube.

    Vertex x = sum a_i 2^(i-1) encodes the bit tuple (a_1, ..., a_d) with
    coordinate 1 least significant, so vertex order 0..2^d-1 enumerates the
    tuples with coordinate 1 varying fastest: (0,0), (1,0), (0,1), (1,1) for
    d = 2.  Edges join vertices differing in exactly one coordinate.
    """
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    return subcube(d, (1,) * d)


def mask_int(mask: Sequence[int]) -> int:
    if any(b not in (0, 1) for b in mask):
        raise ValueError(f"mask must be a 0/1 tuple, got {mask!r}")
    return sum(b << i for i, b in enumerate(mask))


def subcube(d: int, mask: Sequence[int]) -> Multigraph:
    """Induced subcube on the vertices supported inside the mask.

    Isomorphic to hypercube(weight) by dropping the coordinates outside the
    mask's support; vertices keep their ambient labels, in induced order.
    The vertex at index k is the one whose masked bits read k, so its
    neighbours are the indices k xor 2^b, b < weight.
    """
    if len(mask) != d:
        raise ValueError(f"mask length {len(mask)} != {d}")
    m = mask_int(mask)
    xs = [0]  # the vertices inside the mask, ascending
    for i in range(d):
        if m >> i & 1:
            xs += [x | 1 << i for x in xs]
    bits = [1 << b for b in range(m.bit_count())]
    rows = [dict.fromkeys(sorted([k ^ b for b in bits]), 1) for k in range(len(xs))]
    return Multigraph._from_rows([hypercube_label(x, d) for x in xs], rows)


def thick_pair(r: int) -> Multigraph:
    """Two vertices v1, v2 joined by r parallel edges."""
    if r < 1:
        raise NonPositiveMultiplicity(f"need r >= 1, got {r}")
    return build_multigraph(["v1", "v2"], [("v1", "v2", r)])


def thick_k2_cone(r: int, t: int) -> SinkedGraph:
    """Cone of the thick two-vertex graph with r arcs one way and t the other.

    For r = t this is the undirected cone of r parallel edges (the burning
    algorithm applies); for r != t it is the sinked digraph with arcs
    v1->v2 (r), v2->v1 (t) and single arcs into the sink.
    """
    if r < 1 or t < 1:
        raise NonPositiveMultiplicity("need r, t >= 1")
    if r == t:
        return cone(thick_pair(r), 1)
    dg = build_digraph(
        ["v1", "v2", "s"],
        [("v1", "v2", r), ("v2", "v1", t), ("v1", "s", 1), ("v2", "s", 1)],
    )
    return SinkedGraph(dg, "s")


def to_sink_digraph(g: Multigraph, sink: str) -> SinkedGraph:
    """Replace non-sink edges by opposite arc pairs and sink edges by arcs into the sink."""
    if not g.is_connected():
        raise DisconnectedGraph("graph must be connected")
    arcs = []
    for u, v, m in g.edges():
        if u != sink:
            arcs.append((u, v, m))
        if v != sink:
            arcs.append((v, u, m))
    return SinkedGraph(build_digraph(g.vertices, arcs), sink)


def contract(g: Multigraph, group: Iterable[str], new_label: str | None = None) -> Multigraph:
    """Merge a set of vertices into one; internal edges are discarded (no loops),
    multiplicities to outside vertices accumulate."""
    requested = set(group)
    unknown = requested - set(g.vertices)
    if unknown:
        raise UnknownVertex(sorted(unknown)[0])
    members = [v for v in g.vertices if v in requested]
    if not members:
        raise EmptyContractionSet("contraction set is empty")
    if new_label is None:
        new_label = members[0] if len(members) == 1 else "+".join(members)

    def merged(v: str) -> str:
        return new_label if v in requested else v

    order = [merged(v) for v in g.vertices if v == members[0] or v not in requested]
    edges = [
        (merged(u), merged(v), m)
        for u, v, m in g.edges()
        if u not in requested or v not in requested
    ]
    return Multigraph(order, edges)


def cycle_graph(n: int) -> Multigraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    labels = [f"v{i + 1}" for i in range(n)]
    edges = [(labels[i], labels[(i + 1) % n], 1) for i in range(n)]
    return build_multigraph(labels, edges)


def k2() -> Multigraph:
    return thick_pair(1)
