"""Chip-firing dynamics and the sandpile group law.

Configurations are plain tuples of ints indexed by a sinked graph's
nonsink_order.  Stabilization accepts negative entries (only vertices at or
above their out-degree topple), so the recurrent representative of any chip
vector is one stabilization: add a lattice vector that lifts it above the
maximal stable configuration, then topple (Le Borgne and Rossin 2002).  One
burning test (Dhar's on undirected graphs, Speer's on digraphs) decides
recurrence on both kinds of graph, and it is one stabilization too.  That
test lives in `SandpileGroup.is_recurrent` alone, with its script computed
once per group; every other layer asks the group.  A single toppling kernel
runs every stabilization; the recurrent enumeration adds one chip at a time
and runs each avalanche from that chip inline.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from math import gcd
from typing import TYPE_CHECKING, Sequence

from ._record import Record
from .errors import (
    GraphMismatch,
    InfiniteCokernel,
    NoGlobalSink,
    OrbitTooLarge,
    SingularReducedLaplacian,
    ValidationFailed,
)
from .graphs import SinkedGraph

# intlinalg loads when a group first factors its Laplacian, so stabilization,
# burning and representatives run without it.
if TYPE_CHECKING:
    from .intlinalg import GroupStructure, LatticeSolver, WalshSolver

Chips = tuple[int, ...]

DEFAULT_ORBIT_GUARD = 10**6
_SINGULAR = "reduced Laplacian is singular (no global sink / disconnected)"
# Groups kept by sandpile_group; each may hold an n x n factorization.
_GROUP_CACHE_CAP = 64


class RecurrentConfig(Record):
    """A configuration certified recurrent, with the name of the certificate
    that proved it: "burning" for the burning test."""

    __slots__ = ("graph", "values", "certificate")

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


def _topple(c: list[int], out: Sequence[int], adj) -> list[int]:
    """Topple c in place until stable; returns the firing vector.

    The schedule processes a FIFO queue and batches repeated topplings of
    the same vertex; by the abelian property every schedule gives the same
    result.  A vertex is queued only when unstable, at most once at a time,
    and only gains chips until it is popped, so it is unstable when popped.
    """
    n = len(c)
    firings = [0] * n
    queue = deque(i for i in range(n) if c[i] >= out[i])
    queued = [False] * n
    for i in queue:
        queued[i] = True
    while queue:
        i = queue.popleft()
        queued[i] = False
        oi = out[i]
        k = c[i] // oi
        c[i] -= k * oi
        firings[i] += k
        for j, m in adj[i]:
            cj = c[j] + k * m
            c[j] = cj
            if cj >= out[j] and not queued[j]:
                queued[j] = True
                queue.append(j)
    return firings


def stabilize(graph: SinkedGraph, values: Sequence[int]) -> tuple[Chips, Chips]:
    """Topple until stable; returns (stable, firings) with c - L^T f = stable."""
    _require_global_sink(graph)
    c = _check_vector(graph, values)
    firings = _topple(c, graph.out_degrees, graph.adjacency())
    return tuple(c), tuple(firings)


def burning_script(graph: SinkedGraph) -> tuple[Chips, Chips]:
    """Speer's burning script sigma and burning configuration beta = L^T sigma.

    sigma is the least vector with sigma >= 1 and beta >= 0 (Speer 1993; see
    also Holroyd et al. 2008).  By least action it is 1 + f, where f fires the
    stabilization of (indeg_v - 1), indeg_v counting arcs into v from non-sink
    vertices.  For an undirected graph that vector is already stable, so the
    script is all ones and beta is the sink multiplicity (Dhar's test).
    """
    n = graph.n_nonsink
    if not graph.directed:
        return (1,) * n, graph.sink_mult
    indeg = [0] * n
    for row in graph.adjacency():
        for j, m in row:
            indeg[j] += m
    _, f = stabilize(graph, [d - 1 for d in indeg])
    sigma = tuple(1 + k for k in f)
    return sigma, tuple(graph.fire(sigma))


def _lift(graph: SinkedGraph) -> tuple[Chips, Chips]:
    """A lattice vector b = L^T f >= 1 and its firing vector f, for lifting
    any chip vector above the maximal stable configuration.

    When firing every vertex once leaves b = L^T 1 >= 1, that is the pair:
    on an undirected graph b is the sink multiplicities, n * 1 on an n-cone.
    Otherwise, after Le Borgne and Rossin (2002), stabilizing a = 2m + 1,
    m = out - 1, fires f and leaves b = a - stab(a) >= m + 1.
    """
    ones = (1,) * graph.n_nonsink
    b = graph.fire(ones)
    if all(x >= 1 for x in b):
        return tuple(b), ones
    a = [2 * d - 1 for d in graph.out_degrees]
    stable, f = stabilize(graph, a)
    return tuple(p - q for p, q in zip(a, stable)), f


class SandpileGroup:
    """The sandpile group of a sinked graph, with cached exact machinery.

    The group law needs no linear algebra: representatives, the identity
    and add come from stabilization, certified by a sparse product with L^T
    and by the burning test with the script the group computes once, on
    graphs and digraphs alike.  Every lattice answer is read from one
    cached solver object: the determinant and order, congruence and
    membership witnesses, element orders and the structure.  On a cone over
    a Cayley graph of Z_2^d (`intlinalg.cayley_spectrum`, a property of the
    graph and its vertex order) it is the WalshSolver of the characters; on
    every other graph it is the LatticeSolver of L.  How each one gives the
    structure is said in `intlinalg.invariant_factors`.  The LU refuses a
    singular L with its free rank; the group keeps that refusal, so L is
    factored once and every later query is refused again.  Only
    recurrents() enumerates the recurrent set: a chain of cosets of the
    subgroups <e_0, ..., e_v>, one chip addition per recurrent, each a plain
    increment or an avalanche from that one chip, certified by its size
    |det L|.  Its orbit_guard refuses first on the floor prod(out_v - e_v)
    that the identity e gives, before any factorization, and only then on
    |det L|, on every call.
    """

    def __init__(self, graph: SinkedGraph, orbit_guard: int = DEFAULT_ORBIT_GUARD):
        self.graph = graph
        self.orbit_guard = orbit_guard
        self._structure: GroupStructure | None = None
        self._solver: LatticeSolver | WalshSolver | None = None
        self._singular: InfiniteCokernel | None = None
        self._identity: RecurrentConfig | None = None
        self._script: tuple[Chips, Chips] | None = None
        self._lift: tuple[Chips, Chips] | None = None
        self._recurrents: frozenset[Chips] | None = None

    # -- algebra ---------------------------------------------------------

    @property
    def determinant(self) -> int:
        """det L, read from the solver; 0 when L is singular."""
        try:
            return self.solver.determinant
        except SingularReducedLaplacian:
            return 0

    @property
    def order(self) -> int:
        """|det L|; the solver refuses a singular L."""
        return abs(self.solver.determinant)

    @property
    def structure(self) -> GroupStructure:
        if self._structure is None:
            from .intlinalg import invariant_factors

            self._structure = invariant_factors(self.solver)
        return self._structure

    @property
    def solver(self) -> LatticeSolver | WalshSolver:
        """The WalshSolver of a Cayley cone, else the LU of L^T, built once;
        a singular L is factored once too."""
        if self._solver is None and self._singular is None:
            from .intlinalg import LatticeSolver, WalshSolver, cayley_spectrum, reduced_laplacian

            spectrum = cayley_spectrum(self.graph)
            if spectrum is not None:
                self._solver = WalshSolver(self.graph, spectrum)
            else:
                try:
                    self._solver = LatticeSolver(reduced_laplacian(self.graph))
                except InfiniteCokernel as exc:
                    self._singular = exc
        if self._singular is not None:
            raise SingularReducedLaplacian(_SINGULAR) from self._singular
        return self._solver

    def in_image(self, v: Sequence[int]) -> tuple[int, ...] | None:
        """Witness y with L^T y = v, or None."""
        return self.solver.solve(v)

    def congruent(self, x: Sequence[int], y: Sequence[int]) -> bool:
        x = _check_vector(self.graph, x)
        y = _check_vector(self.graph, y)
        return self.in_image([a - b for a, b in zip(x, y)]) is not None

    # -- dynamics ----------------------------------------------------------

    def is_recurrent(self, values: Sequence[int]) -> bool:
        """The burning test: a stable c is recurrent iff stabilizing c + beta
        fires every vertex v exactly sigma_v times, which returns it to c.  By
        least action no vertex fires more (Dhar 1990; Speer 1993; Fey, Levine
        and Peres 2010).  The script (sigma, beta) of `burning_script` is
        computed once per group.
        """
        c = _check_vector(self.graph, values)
        if any(x < 0 for x in c):
            raise ValueError("configurations are nonnegative")
        out = self.graph.out_degrees
        if any(x >= d for x, d in zip(c, out)):
            return False
        if self._script is None:
            self._script = burning_script(self.graph)
        sigma, beta = self._script
        c = [x + b for x, b in zip(c, beta)]
        return _topple(c, out, self.graph.adjacency()) == list(sigma)

    def recurrents(self) -> frozenset[Chips]:
        """The recurrent set, enumerated as a chain of cosets of K.

        Adding a chip at v and stabilizing acts on the recurrents as the
        class of e_v, and these classes generate K (Dhar 1990).  So from the
        maximal stable configuration m = out - 1 the chain grows the coset
        m + <e_0, ..., e_{v-1}> into m + <e_0, ..., e_v> by h_v - 1 copies
        of itself, each one chip at v from the last.  The index
        h_v = [<e_0, ..., e_v> : <e_0, ..., e_{v-1}>], the v-th diagonal
        entry of the column Hermite normal form of L^T, is found on the
        way: m plus h_v chips at v is the first step that lands back in the
        old coset.  The cosets are disjoint, so each recurrent is made once,
        by one chip addition.  A chip added below out_v - 1 leaves the
        configuration stable; any other starts an avalanche from v alone.
        Each copy is built from the last in one pass, and only its first
        element is looked up among the old coset.

        Recurrents form an up-set of the stable box, so the identity e alone
        shows |K| >= prod(out_v - e_v); the guard refuses on that floor,
        which needs no factorization, before it reads |det L|, on every
        call.  The set is certified by its size: every element is m plus
        chips, stabilized, hence recurrent, and |det L| distinct ones are
        all of them.  Enumeration runs through every vertex, and refuses as
        soon as one more coset would pass |det L|, before the set does.
        """
        guard = self.orbit_guard
        out = self.graph.out_degrees
        floor = 1
        for d, e in zip(out, self.identity.values):
            floor *= d - e
            if floor > guard:
                raise OrbitTooLarge(f"recurrent set has more than {guard} elements "
                                    "(the identity's up-set alone exceeds the guard)")
        size = self.order
        if size > guard:
            raise OrbitTooLarge(f"recurrent set has a {size.bit_length()}-bit number "
                                f"of elements, more than {guard}")
        if self._recurrents is None:
            adj = self.graph.adjacency()
            m = tuple(d - 1 for d in out)
            # After step v, chain lists the coset m + <e_0, ..., e_v> of K as
            # copies of m + <e_0, ..., e_{v-1}>, the k-th one k chips at v
            # from the first.
            chain = [m]
            seen = {m}
            for v, top in enumerate(m):

                def add_chip(c: Chips) -> Chips:
                    """c plus a chip at v, stabilized: below top a plain
                    increment, at top an avalanche from v.  A vertex is
                    pushed when its count crosses out_j, so it is on the
                    stack at most once, and it fires all it can at once.
                    Only v starts unstable and no firing vector is read, so
                    this skips the queue setup and firings of _topple."""
                    if c[v] < top:
                        return c[:v] + (c[v] + 1,) + c[v + 1:]
                    w = list(c)
                    w[v] = top + 1
                    stack = [v]
                    while stack:
                        u = stack.pop()
                        ou = out[u]
                        k = w[u] // ou
                        w[u] -= k * ou
                        for j, mult in adj[u]:
                            cj = w[j]
                            w[j] = nj = cj + k * mult
                            if cj < out[j] <= nj:
                                stack.append(j)
                    return tuple(w)

                base = len(chain)
                copy = chain
                while True:
                    # The first element of the next copy: back in the old
                    # coset after h_v copies, or one more coset.
                    first = add_chip(copy[0])
                    if first in seen:
                        break
                    if len(chain) + base > size:
                        raise ValidationFailed(
                            f"recurrent orbit has more than {size} elements")
                    copy = [first, *map(add_chip, copy[1:])]
                    chain += copy
                seen.update(islice(chain, base, None))
            if len(seen) != size:
                raise ValidationFailed(f"recurrent orbit has {len(seen)} elements, not {size}")
            self._recurrents = frozenset(seen)
        return self._recurrents

    def representative(self, x: Sequence[int]) -> RecurrentConfig:
        """The unique recurrent configuration congruent to x modulo Im L^T.

        After Le Borgne and Rossin (2002): every configuration at or above
        the maximal stable one, m = out - 1, stabilizes to a recurrent one.
        Once per group, `_lift` finds a lattice vector b = L^T f_b >= 1:
        L^T 1 when that is >= 1, as on every cone, else b = a - stab(a) for
        a = 2m + 1.  The representative is stab(x + k b), firing f, for the
        least k >= 0 with x + k b >= m; it does not depend on b.  It
        is certified congruent by one sparse product, result - x =
        L^T (k f_b - f), and recurrent by the burning test.  A recurrent x is
        the unique recurrent configuration of its class, so a nonnegative x
        that passes the burning test is returned as it stands.  On an
        undirected graph a recurrent configuration holds at least
        |E(G - s)| chips, one per edge among the non-sink vertices (its
        level is nonnegative; Merino 1997), so an x with fewer, the zero
        vector of the identity among them, is lifted without that test.
        """
        x = _check_vector(self.graph, x)
        if not self.graph.connected:
            raise SingularReducedLaplacian(_SINGULAR)
        # 2 |E(G - s)| = sum(out) - sum(sink_mult) on an undirected graph.
        graph = self.graph
        burn = graph.directed or 2 * sum(x) >= sum(graph.out_degrees) - sum(graph.sink_mult)
        if burn and all(xi >= 0 for xi in x) and self.is_recurrent(x):
            return RecurrentConfig(self.graph, tuple(x), "burning")
        if self._lift is None:
            self._lift = _lift(self.graph)
        b, f_b = self._lift
        # k = max(0, ceil((m_i - x_i) / b_i)) over the coordinates i.
        k = max([0] + [-((xi + 1 - d) // bi) for xi, bi, d in zip(x, b, self.graph.out_degrees)])
        stable, f = stabilize(self.graph, [xi + k * bi for xi, bi in zip(x, b)])
        y = [k * p - q for p, q in zip(f_b, f)]
        if self.graph.fire(y) != [s - xi for s, xi in zip(stable, x)]:
            raise ValidationFailed(f"firing vector does not carry {tuple(x)} to {stable}")
        if not self.is_recurrent(stable):
            raise ValidationFailed(f"representative {stable} failed the burning test")
        return RecurrentConfig(self.graph, stable, "burning")

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
        if not self.is_recurrent(values):
            raise ValueError(f"{values} is not recurrent")
        return RecurrentConfig(self.graph, values, "burning")

    def element_order(self, c: RecurrentConfig | Sequence[int]) -> int:
        """Least k with the k-fold sum of c equal to the identity.

        Computed as the order of the class of c - e in Z^n / Im L^T, then
        certified by one solve: the witness y with L^T y = k(c-e) exists,
        and gcd(k, y_1, ..., y_n) = 1.  The rational solution is unique, so
        a common factor g would give (k/g)(c-e) = L^T (y/g) with y/g
        integral, and without one no proper divisor of k annihilates.
        """
        values = _check_vector(self.graph, tuple(c))
        e = self.identity.values
        diff = [a - b for a, b in zip(values, e)]
        k = self.solver.class_order(diff)
        y = self.in_image([k * d for d in diff])
        if y is None:
            raise ValidationFailed(f"{k} times {values} minus the identity is not in Im L^T")
        g = gcd(k, *y)
        if g != 1:
            raise ValidationFailed(f"order {k} is not minimal: {k // g} already annihilates")
        return k


_group_cache: dict[SinkedGraph, SandpileGroup] = {}


def sandpile_group(graph: SinkedGraph, orbit_guard: int | None = None) -> SandpileGroup:
    """Shared, cached group object for an (immutable) sinked graph.  An
    orbit_guard, when given, becomes the cached group's guard; a new group
    starts with DEFAULT_ORBIT_GUARD."""
    group = _group_cache.get(graph)
    if group is None:
        group = SandpileGroup(graph)
        _group_cache[graph] = group
        while len(_group_cache) > _GROUP_CACHE_CAP:
            del _group_cache[next(iter(_group_cache))]
    if orbit_guard is not None:
        group.orbit_guard = orbit_guard
    return group


# -- free-function surface ------------------------------------------------------


def is_recurrent_burning(
    graph: SinkedGraph, values: Sequence[int]
) -> tuple[bool, Chips | None]:
    """`SandpileGroup.is_recurrent` on the cached group of graph: Dhar's test
    (sigma = 1, beta = sink multiplicities) on undirected graphs, Speer's on
    digraphs.  Returns (True, sigma) or (False, None).
    """
    group = sandpile_group(graph)
    if group.is_recurrent(values):
        return True, group._script[0]
    return False, None


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
