"""Chip-firing dynamics and the sandpile group law.

Configurations are plain tuples of ints indexed by a sinked graph's
nonsink_order.  Stabilization accepts negative entries (only vertices at or
above their out-degree topple), which is what lets class representatives of
arbitrary chip vectors be computed by repeated sink firing.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    GraphMismatch,
    NoGlobalSink,
    NotUndirected,
    OrbitTooLarge,
    SingularReducedLaplacian,
    UnsupportedForDigraph,
    ValidationFailed,
)
from .graphs import SinkedGraph
from .intlinalg import (
    GroupStructure,
    IntMatrix,
    LatticeSolver,
    _factorize,
    determinant,
    invariant_factors,
    reduced_laplacian,
)
from .errors import InfiniteCokernel

Chips = tuple[int, ...]

DEFAULT_ORBIT_GUARD = 10**6
_REPRESENTATIVE_CAP = 10**6


@dataclass(frozen=True)
class RecurrentConfig:
    """A configuration certified recurrent, with the certificate that proved it."""

    graph: SinkedGraph
    values: Chips
    certificate: str
    burning_order: tuple[str, ...] | None = None

    def __iter__(self):
        return iter(self.values)


def _check_vector(graph: SinkedGraph, values: Sequence[int]) -> list[int]:
    if len(values) != graph.n_nonsink:
        raise GraphMismatch(
            f"vector length {len(values)} != {graph.n_nonsink} non-sink vertices"
        )
    return [int(x) for x in values]


def _require_global_sink(graph: SinkedGraph) -> None:
    # Digraphs validate their global sink at construction; undirected graphs
    # may be disconnected, which is exactly the nonterminating case.
    if not graph.connected:
        raise NoGlobalSink("graph is disconnected; stabilization need not terminate")


def stabilize(
    graph: SinkedGraph,
    values: Sequence[int],
    rng: random.Random | None = None,
) -> tuple[Chips, Chips]:
    """Topple until stable; returns (stable, firings) with c - L^T f = stable.

    The default schedule processes a queue in vertex order and batches
    repeated topplings of the same vertex; passing an rng fires one random
    unstable vertex at a time instead.  The abelian property makes the result
    identical either way.
    """
    _require_global_sink(graph)
    c = _check_vector(graph, values)
    n = len(c)
    out = graph.out_degrees
    adj = graph.adjacency()
    firings = [0] * n

    if rng is not None:
        while True:
            unstable = [i for i in range(n) if c[i] >= out[i]]
            if not unstable:
                break
            i = rng.choice(unstable)
            c[i] -= out[i]
            firings[i] += 1
            for j, m in adj[i]:
                c[j] += m
        return tuple(c), tuple(firings)

    queue = deque(i for i in range(n) if c[i] >= out[i])
    queued = [False] * n
    for i in queue:
        queued[i] = True
    while queue:
        i = queue.popleft()
        queued[i] = False
        oi = out[i]
        if c[i] < oi:
            continue
        k = c[i] // oi
        c[i] -= k * oi
        firings[i] += k
        for j, m in adj[i]:
            cj = c[j] + k * m
            c[j] = cj
            if cj >= out[j] and not queued[j]:
                queued[j] = True
                queue.append(j)
    return tuple(c), tuple(firings)


def is_stable(graph: SinkedGraph, values: Sequence[int]) -> bool:
    return all(0 <= x < d for x, d in zip(values, graph.out_degrees))


def _burning_order_indices(graph: SinkedGraph, values: Sequence[int]) -> list[int] | None:
    """Greedy burning pass; complete because firing only adds chips elsewhere."""
    out = graph.out_degrees
    adj = graph.adjacency()
    n = len(out)
    work = [values[i] + graph.sink_mult[i] for i in range(n)]
    burned = [False] * n
    order: list[int] = []
    progress = True
    while progress and len(order) < n:
        progress = False
        for i in range(n):
            if not burned[i] and work[i] >= out[i]:
                burned[i] = True
                order.append(i)
                work[i] -= out[i]
                for j, m in adj[i]:
                    work[j] += m
                progress = True
    return order if len(order) == n else None


def is_recurrent_burning(
    graph: SinkedGraph, values: Sequence[int]
) -> tuple[bool, tuple[str, ...] | None]:
    """Burning test: add one chip per sink edge; recurrent iff every vertex
    topples exactly once and the configuration returns to itself.

    Valid for undirected graphs only; digraph recurrence goes through the
    orbit oracle.
    """
    if graph.directed:
        raise NotUndirected("the burning test applies to undirected graphs only")
    c = _check_vector(graph, values)
    if any(x < 0 for x in c):
        raise ValueError("configurations are nonnegative")
    if not is_stable(graph, c):
        return False, None
    order = _burning_order_indices(graph, c)
    if order is None:
        return False, None
    return True, tuple(graph.nonsink_order[i] for i in order)


class SandpileGroup:
    """The sandpile group of a sinked graph, with cached exact machinery.

    The structure comes from the Smith diagonal of the reduced Laplacian L
    modulo |det L|; membership witnesses, class keys and element orders come
    from one cached LatticeSolver, i.e. det * (L^T)^-1.  The recurrent set is
    enumerated lazily and only on demand (guarded by orbit_guard).
    """

    def __init__(self, graph: SinkedGraph, orbit_guard: int = DEFAULT_ORBIT_GUARD):
        self.graph = graph
        self.orbit_guard = orbit_guard
        self._reduced: IntMatrix | None = None
        self._det: int | None = None
        self._structure: GroupStructure | None = None
        self._solver: LatticeSolver | None = None
        self._identity: RecurrentConfig | None = None
        self._recurrents: frozenset[Chips] | None = None
        self._class_index: dict[tuple[int, ...], Chips] | None = None

    # -- algebra ---------------------------------------------------------

    @property
    def reduced_laplacian(self) -> IntMatrix:
        if self._reduced is None:
            self._reduced = reduced_laplacian(self.graph)
        return self._reduced

    @property
    def determinant(self) -> int:
        if self._det is None:
            self._det = determinant(self.reduced_laplacian)
        return self._det

    @property
    def order(self) -> int:
        det = self.determinant
        if det == 0:
            raise SingularReducedLaplacian(
                "reduced Laplacian is singular (no global sink / disconnected)"
            )
        return abs(det)

    @property
    def structure(self) -> GroupStructure:
        if self._structure is None:
            try:
                self._structure = invariant_factors(self.reduced_laplacian)
            except InfiniteCokernel as exc:
                raise SingularReducedLaplacian(
                    "reduced Laplacian is singular (no global sink / disconnected)"
                ) from exc
        return self._structure

    @property
    def solver(self) -> LatticeSolver:
        if self._solver is None:
            try:
                self._solver = LatticeSolver(self.reduced_laplacian)
            except InfiniteCokernel as exc:
                raise SingularReducedLaplacian(
                    "reduced Laplacian is singular (no global sink / disconnected)"
                ) from exc
        return self._solver

    def in_image(self, v: Sequence[int]) -> tuple[int, ...] | None:
        """Witness y with L^T y = v, or None."""
        return self.solver.solve(v)

    def congruent(self, x: Sequence[int], y: Sequence[int]) -> bool:
        x = _check_vector(self.graph, x)
        y = _check_vector(self.graph, y)
        return self.in_image([a - b for a, b in zip(x, y)]) is not None

    def class_key(self, x: Sequence[int]) -> tuple[int, ...]:
        return self.solver.class_coordinates(_check_vector(self.graph, x))

    # -- dynamics ----------------------------------------------------------

    def stabilize(self, values: Sequence[int]) -> tuple[Chips, Chips]:
        return stabilize(self.graph, values)

    def is_recurrent(self, values: Sequence[int]) -> bool:
        if self.graph.directed:
            return tuple(values) in self.recurrents()
        return is_recurrent_burning(self.graph, values)[0]

    def _certify(self, values: Chips, kind: str) -> RecurrentConfig:
        if self.graph.directed:
            if self._recurrents is not None and values not in self._recurrents:
                raise ValueError(f"{values} is not recurrent")
            return RecurrentConfig(self.graph, values, kind)
        ok, order = is_recurrent_burning(self.graph, values)
        if not ok:
            raise ValueError(f"{values} is not recurrent")
        return RecurrentConfig(self.graph, values, "burning", order)

    def recurrents(self) -> frozenset[Chips]:
        """The recurrent set: closure of the maximal stable configuration
        under adding one chip and stabilizing."""
        if self._recurrents is None:
            size = self.order
            if size > self.orbit_guard:
                raise OrbitTooLarge(f"recurrent set has {size} elements (guard {self.orbit_guard})")
            _require_global_sink(self.graph)
            out = self.graph.out_degrees
            start, _ = stabilize(self.graph, tuple(d - 1 for d in out))
            seen = {start}
            queue = deque([start])
            n = len(out)
            while queue:
                c = queue.popleft()
                for v in range(n):
                    bumped = list(c)
                    bumped[v] += 1
                    nxt, _ = stabilize(self.graph, bumped)
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
            if len(seen) != size:
                raise ValidationFailed(f"recurrent orbit has {len(seen)} elements, not {size}")
            self._recurrents = frozenset(seen)
        return self._recurrents

    def _class_lookup(self, x: Sequence[int]) -> Chips:
        if self._class_index is None:
            size = self.order
            if size > self.orbit_guard:
                raise UnsupportedForDigraph(
                    f"digraph representative needs the orbit; {size} elements exceed the guard"
                )
            self._class_index = {self.class_key(c): c for c in self.recurrents()}
        return self._class_index[self.class_key(x)]

    def representative(self, x: Sequence[int]) -> RecurrentConfig:
        """The unique recurrent configuration congruent to x modulo Im L^T.

        Undirected graphs: repeatedly fire the sink (add the sink-adjacency
        vector b and stabilize) — b = L·1 lies in the lattice, so the class
        never changes — until the burning test passes.  Digraphs: look the
        class up in the guarded orbit.
        """
        x = _check_vector(self.graph, x)
        self.order  # raises SingularReducedLaplacian when there is no group
        if self.graph.directed:
            values = self._class_lookup(x)
            rc = RecurrentConfig(self.graph, values, "orbit")
        else:
            _require_global_sink(self.graph)
            b = self.graph.sink_mult
            c = list(x)
            # Jump-start: lift negative coordinates that the sink feeds directly.
            k0 = 0
            for xi, bi in zip(x, b):
                if xi < 0 and bi > 0:
                    k0 = max(k0, (-xi + bi - 1) // bi)
            if k0:
                c = [xi + k0 * bi for xi, bi in zip(c, b)]
            for _ in range(_REPRESENTATIVE_CAP):
                stable, _ = stabilize(self.graph, c)
                if all(v >= 0 for v in stable) and _burning_order_indices(self.graph, stable):
                    values = stable
                    break
                c = [v + bi for v, bi in zip(stable, b)]
            else:
                raise ValidationFailed("sink firing failed to reach a recurrent configuration")
            rc = self._certify(values, "sink-firing")
        if self.in_image([a - b for a, b in zip(rc.values, x)]) is None:
            raise ValidationFailed(f"representative {rc.values} is not congruent to {tuple(x)}")
        return rc

    @property
    def identity(self) -> RecurrentConfig:
        if self._identity is None:
            self._identity = self.representative([0] * self.graph.n_nonsink)
        return self._identity

    def add_values(self, c1: Sequence[int], c2: Sequence[int]) -> Chips:
        stable, _ = stabilize(self.graph, [a + b for a, b in zip(c1, c2)])
        return stable

    def add(self, c1: RecurrentConfig, c2: RecurrentConfig) -> RecurrentConfig:
        if c1.graph != self.graph or c2.graph != self.graph:
            raise GraphMismatch("configurations belong to a different graph")
        values = self.add_values(c1.values, c2.values)
        if self.graph.directed:
            # Closure of the recurrent set under adding-and-stabilizing.
            return RecurrentConfig(self.graph, values, "closure")
        return self._certify(values, "burning")

    def element_order(self, c: RecurrentConfig | Sequence[int]) -> int:
        """Least k with the k-fold sum of c equal to the identity.

        Computed as the order of the class of c - e in Z^n / Im L^T, then
        certified through the lattice: k(c-e) lies in Im L^T and (k/p)(c-e)
        does not, for every prime p dividing k.
        """
        values = c.values if isinstance(c, RecurrentConfig) else tuple(c)
        values = _check_vector(self.graph, values)
        e = self.identity.values
        diff = [a - b for a, b in zip(values, e)]
        k = self.solver.class_order(diff)
        if self.in_image([k * d for d in diff]) is None:
            raise ValidationFailed(f"{k} times {values} minus the identity is not in Im L^T")
        for p in _factorize(k):
            if self.in_image([(k // p) * d for d in diff]) is not None:
                raise ValidationFailed(f"order {k} is not minimal: {k // p} already annihilates")
        return k


_group_cache: dict[SinkedGraph, SandpileGroup] = {}


def sandpile_group(graph: SinkedGraph, orbit_guard: int = DEFAULT_ORBIT_GUARD) -> SandpileGroup:
    """Shared, cached group object for an (immutable) sinked graph."""
    group = _group_cache.get(graph)
    if group is None or group.orbit_guard < orbit_guard:
        group = SandpileGroup(graph, orbit_guard)
        _group_cache[graph] = group
    return group


# -- free-function surface ------------------------------------------------------


def recurrent_orbit(graph: SinkedGraph, guard: int = DEFAULT_ORBIT_GUARD) -> set[Chips]:
    return set(sandpile_group(graph, guard).recurrents())


def identity(graph: SinkedGraph) -> RecurrentConfig:
    return sandpile_group(graph).identity


def add_recurrent(c1: RecurrentConfig, c2: RecurrentConfig) -> RecurrentConfig:
    if c1.graph != c2.graph:
        raise GraphMismatch("configurations live on different graphs")
    return sandpile_group(c1.graph).add(c1, c2)


def recurrent_representative(graph: SinkedGraph, x: Sequence[int]) -> RecurrentConfig:
    return sandpile_group(graph).representative(x)


def element_order(c: RecurrentConfig) -> int:
    return sandpile_group(c.graph).element_order(c)


def congruent(graph: SinkedGraph, x: Sequence[int], y: Sequence[int]) -> bool:
    return sandpile_group(graph).congruent(x, y)
