"""Multigraphs, digraphs, and the sinked graphs all sandpile dynamics run on.

Vertices are opaque string labels; vertex order is insertion order and stays
stable across every derived matrix and vector.  All graph values are immutable
after construction, so Laplacians, determinants and lattice solvers can be
cached per graph object.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence, Union

from .errors import (
    DisconnectedGraph,
    EmptyContractionSet,
    LoopEdge,
    NoGlobalSink,
    NonPositiveMultiplicity,
    UnknownVertex,
)


class Multigraph:
    """Loop-free undirected graph with integer edge multiplicities."""

    __slots__ = ("vertices", "_index", "_mult")

    def __init__(self, vertices: Sequence[str], mult_matrix: Sequence[Sequence[int]]):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise UnknownVertex("duplicate vertex labels")
        self._index = {v: i for i, v in enumerate(self.vertices)}
        self._mult = tuple(tuple(row) for row in mult_matrix)
        n = len(self.vertices)
        for i in range(n):
            if self._mult[i][i] != 0:
                raise LoopEdge(f"loop at {self.vertices[i]}")
            for j in range(n):
                if self._mult[i][j] != self._mult[j][i]:
                    raise ValueError("multiplicity matrix must be symmetric")
                if self._mult[i][j] < 0:
                    raise NonPositiveMultiplicity("negative multiplicity")

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertex(v) from None

    def multiplicity(self, u: str, v: str) -> int:
        return self._mult[self.index(u)][self.index(v)]

    def mult_row(self, i: int) -> tuple[int, ...]:
        return self._mult[i]

    def degree(self, v: str) -> int:
        return sum(self._mult[self.index(v)])

    def edges(self) -> list[tuple[str, str, int]]:
        """All edges as (u, v, multiplicity) with u before v in vertex order."""
        out = []
        for i in range(self.n):
            for j in range(i + 1, self.n):
                m = self._mult[i][j]
                if m:
                    out.append((self.vertices[i], self.vertices[j], m))
        return out

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = {0}
        queue = deque([0])
        while queue:
            i = queue.popleft()
            for j, m in enumerate(self._mult[i]):
                if m and j not in seen:
                    seen.add(j)
                    queue.append(j)
        return len(seen) == self.n

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Multigraph)
            and self.vertices == other.vertices
            and self._mult == other._mult
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self._mult))

    def __repr__(self) -> str:
        return f"Multigraph({len(self.vertices)} vertices, {len(self.edges())} edge classes)"


class Digraph:
    """Loop-free directed graph with integer arc multiplicities."""

    __slots__ = ("vertices", "_index", "_amult")

    def __init__(self, vertices: Sequence[str], amult_matrix: Sequence[Sequence[int]]):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise UnknownVertex("duplicate vertex labels")
        self._index = {v: i for i, v in enumerate(self.vertices)}
        self._amult = tuple(tuple(row) for row in amult_matrix)
        for i in range(len(self.vertices)):
            if self._amult[i][i] != 0:
                raise LoopEdge(f"loop at {self.vertices[i]}")
            for x in self._amult[i]:
                if x < 0:
                    raise NonPositiveMultiplicity("negative multiplicity")

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertex(v) from None

    def arc_multiplicity(self, u: str, v: str) -> int:
        return self._amult[self.index(u)][self.index(v)]

    def mult_row(self, i: int) -> tuple[int, ...]:
        return self._amult[i]

    def out_degree(self, v: str) -> int:
        return sum(self._amult[self.index(v)])

    def arcs(self) -> list[tuple[str, str, int]]:
        out = []
        for i in range(self.n):
            for j in range(self.n):
                m = self._amult[i][j]
                if m:
                    out.append((self.vertices[i], self.vertices[j], m))
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Digraph)
            and self.vertices == other.vertices
            and self._amult == other._amult
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self._amult))

    def __repr__(self) -> str:
        return f"Digraph({len(self.vertices)} vertices)"


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
        "_adjacency",
        "_nonsink_index",
        "_connected",
    )

    def __init__(self, graph: AnyGraph, sink: str):
        self.graph = graph
        self.sink = sink
        sink_i = graph.index(sink)
        self.directed = isinstance(graph, Digraph)
        self.nonsink_order = tuple(v for v in graph.vertices if v != sink)
        self._nonsink_index = {v: i for i, v in enumerate(self.nonsink_order)}
        idx = [graph.index(v) for v in self.nonsink_order]

        rows = [graph.mult_row(i) for i in idx]
        self.out_degrees = tuple(sum(row) for row in rows)
        self.sink_mult = tuple(row[sink_i] for row in rows)
        # Adjacency among non-sink vertices only; chips sent to the sink vanish.
        self._adjacency = tuple(
            tuple((j, row[gj]) for j, gj in enumerate(idx) if row[gj])
            for row in rows
        )

        if self.directed:
            if graph.out_degree(sink) != 0:
                raise NoGlobalSink(f"{sink} has outgoing arcs")
            if not self._reaches_sink():
                raise NoGlobalSink(f"{sink} is not reachable from every vertex")
            self._connected = True
        else:
            self._connected = graph.is_connected()

    def _reaches_sink(self) -> bool:
        # BFS along reversed arcs from the sink.
        g = self.graph
        n = g.n
        sink_i = g.index(self.sink)
        seen = {sink_i}
        queue = deque([sink_i])
        while queue:
            j = queue.popleft()
            for i in range(n):
                if i not in seen and g.mult_row(i)[j]:
                    seen.add(i)
                    queue.append(i)
        return len(seen) == n

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
    order = list(vertices)
    index = {v: i for i, v in enumerate(order)}
    if len(index) != len(order):
        raise UnknownVertex("duplicate vertex labels")
    n = len(order)
    mult = [[0] * n for _ in range(n)]
    for u, v, m in edges:
        if u not in index or v not in index:
            raise UnknownVertex(f"edge endpoint {u if u not in index else v!r} not declared")
        if u == v:
            raise LoopEdge(f"loop at {u}")
        if m < 1:
            raise NonPositiveMultiplicity(f"multiplicity {m} on edge {u}{v}")
        i, j = index[u], index[v]
        mult[i][j] += m
        mult[j][i] += m
    return Multigraph(order, mult)


def build_digraph(
    vertices: Sequence[str], arcs: Iterable[tuple[str, str, int]]
) -> Digraph:
    order = list(vertices)
    index = {v: i for i, v in enumerate(order)}
    if len(index) != len(order):
        raise UnknownVertex("duplicate vertex labels")
    n = len(order)
    amult = [[0] * n for _ in range(n)]
    for u, v, m in arcs:
        if u not in index or v not in index:
            raise UnknownVertex(f"arc endpoint {u if u not in index else v!r} not declared")
        if u == v:
            raise LoopEdge(f"loop at {u}")
        if m < 1:
            raise NonPositiveMultiplicity(f"multiplicity {m} on arc ({u},{v})")
        amult[index[u]][index[v]] += m
    return Digraph(order, amult)


def fresh_label(base: str, taken: Iterable[str]) -> str:
    taken = set(taken)
    if base not in taken:
        return base
    k = 1
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"


def cone(g: Multigraph, n: int = 1, sink_label: str = "s") -> SinkedGraph:
    """The n-cone: a fresh sink joined to every vertex of g by n parallel edges."""
    if n < 1:
        raise NonPositiveMultiplicity(f"cone needs n >= 1, got {n}")
    sink = fresh_label(sink_label, g.vertices)
    vertices = g.vertices + (sink,)
    edges = g.edges() + [(v, sink, n) for v in g.vertices]
    return SinkedGraph(build_multigraph(vertices, edges), sink)


def cartesian_product(g: Multigraph, h: Multigraph) -> Multigraph:
    """Cartesian product; vertex (u_i, v_j) sits at index j*|V(g)| + i.

    The first factor's index varies fastest, so iterated products of two-vertex
    graphs enumerate bit tuples with coordinate 1 first.
    """
    gn, hn = g.n, h.n
    vertices = [
        f"({g.vertices[i]},{h.vertices[j]})" for j in range(hn) for i in range(gn)
    ]
    size = gn * hn
    mult = [[0] * size for _ in range(size)]
    for j in range(hn):
        base = j * gn
        for i in range(gn):
            row_g = g.mult_row(i)
            a = base + i
            for i2 in range(gn):
                if row_g[i2]:
                    mult[a][base + i2] = row_g[i2]
    for i in range(gn):
        for j in range(hn):
            row_h = h.mult_row(j)
            a = j * gn + i
            for j2 in range(hn):
                if row_h[j2]:
                    mult[a][j2 * gn + i] = row_h[j2]
    return Multigraph(vertices, mult)


def hypercube_label(x: int, d: int) -> str:
    return "v" + "".join(str((x >> i) & 1) for i in range(d))


def hypercube(d: int) -> Multigraph:
    """Dimension-d cube.

    Vertex x = sum a_i 2^(i-1) encodes the bit tuple (a_1, ..., a_d) with
    coordinate 1 least significant, so vertex order 0..2^d-1 enumerates the
    tuples with coordinate 1 varying fastest: (0,0), (1,0), (0,1), (1,1) for
    d = 2.  Edges join vertices differing in exactly one coordinate.
    """
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    size = 1 << d
    vertices = [hypercube_label(x, d) for x in range(size)]
    mult = [[0] * size for _ in range(size)]
    for x in range(size):
        for i in range(d):
            y = x ^ (1 << i)
            mult[x][y] = 1
    return Multigraph(vertices, mult)


def mask_int(mask: Sequence[int]) -> int:
    if any(b not in (0, 1) for b in mask):
        raise ValueError(f"mask must be a 0/1 tuple, got {mask!r}")
    return sum(b << i for i, b in enumerate(mask))


def subcube(d: int, mask: Sequence[int]) -> Multigraph:
    """Induced subcube on the vertices supported inside the mask.

    Isomorphic to hypercube(weight) by dropping the coordinates outside the
    mask's support; vertices keep their ambient labels, in induced order.
    """
    if len(mask) != d:
        raise ValueError(f"mask length {len(mask)} != {d}")
    m = mask_int(mask)
    members = [x for x in range(1 << d) if x & ~m == 0]
    vertices = [hypercube_label(x, d) for x in members]
    pos = {x: i for i, x in enumerate(members)}
    size = len(members)
    mult = [[0] * size for _ in range(size)]
    for x in members:
        for i in range(d):
            if m >> i & 1:
                y = x ^ (1 << i)
                mult[pos[x]][pos[y]] = 1
    return Multigraph(vertices, mult)


def thick_pair(r: int, labels: tuple[str, str] = ("v1", "v2")) -> Multigraph:
    """Two vertices joined by r parallel edges."""
    if r < 1:
        raise NonPositiveMultiplicity(f"need r >= 1, got {r}")
    return build_multigraph(list(labels), [(labels[0], labels[1], r)])


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
    sink_i = g.index(sink)
    arcs = []
    for u, v, m in g.edges():
        iu, iv = g.index(u), g.index(v)
        if iu == sink_i:
            arcs.append((v, u, m))
        elif iv == sink_i:
            arcs.append((u, v, m))
        else:
            arcs.append((u, v, m))
            arcs.append((v, u, m))
    return SinkedGraph(build_digraph(g.vertices, arcs), sink)


def contract(g: Multigraph, group: Iterable[str], new_label: str | None = None) -> Multigraph:
    """Merge a set of vertices into one; internal edges are discarded (no loops),
    multiplicities to outside vertices accumulate."""
    members = [v for v in g.vertices if v in set(group)]
    requested = set(group)
    unknown = requested - set(g.vertices)
    if unknown:
        raise UnknownVertex(sorted(unknown)[0])
    if not members:
        raise EmptyContractionSet("contraction set is empty")
    if new_label is None:
        new_label = members[0] if len(members) == 1 else "+".join(members)
    member_idx = {g.index(v) for v in members}
    first = min(member_idx)

    order: list[str] = []
    for i, v in enumerate(g.vertices):
        if i == first:
            order.append(new_label)
        elif i not in member_idx:
            order.append(v)
    size = len(order)
    keep = [i for i in range(g.n) if i not in member_idx]
    new_pos: dict[int, int] = {}
    pos = 0
    for i in range(g.n):
        if i == first:
            merged_pos = pos
            pos += 1
        elif i not in member_idx:
            new_pos[i] = pos
            pos += 1

    mult = [[0] * size for _ in range(size)]
    for i in keep:
        row = g.mult_row(i)
        for j in keep:
            mult[new_pos[i]][new_pos[j]] = row[j]
        to_merged = sum(row[k] for k in member_idx)
        mult[new_pos[i]][merged_pos] = to_merged
        mult[merged_pos][new_pos[i]] = to_merged
    return Multigraph(order, mult)


def cycle_graph(n: int) -> Multigraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    labels = [f"v{i + 1}" for i in range(n)]
    edges = [(labels[i], labels[(i + 1) % n], 1) for i in range(n)]
    return build_multigraph(labels, edges)


def k2() -> Multigraph:
    return thick_pair(1)
