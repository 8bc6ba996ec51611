"""Exact integer linear algebra: Laplacians, determinants, cokernels and
lattice membership.

Two eliminations answer every question about the lattice Im L^T of a square
L, and a transform answers them on the cones of Cayley graphs of Z_2^d.  One
elimination is the factorization object LatticeSolver: an exact LU of L^T, a
single list of elimination steps (division-free steps on +-1 pivots, then
Bareiss steps).  Its length is the rank, so a singular L is refused with its
free rank; otherwise the solver holds det L, replays the steps on a vector
v to give delta * (L^T)^-1 v with |delta| = |det L|, behind witnesses and
class orders, and keeps the core its unit steps leave.  determinant(),
invariant_factors and the lattice queries of every other group read that
one object.  The other is one Smith pivot-and-clear loop, _smith_eliminate.  Run
modulo a multiple of the group exponent, it gives the Smith diagonal of
every cokernel.  For the group structure it runs on the core the LU's unit
steps leave, modulo the smaller of E and |det|/E, with E the lcm of the
class orders of two fixed vectors; modulo |det|/E it gives every invariant
factor but the last, which is |det| over their product.  Run over the
integers on a matrix bordered by identities, it gives the Smith normal form
with transforms of the `snf` command.

The third route, the transform, needs no elimination.  `cayley_spectrum`
recognises, in O(V + E), a cone whose index rows are those of a Cayley graph
of Z_2^d; its characters diagonalise L, so WalshSolver answers the same
queries as LatticeSolver by two Walsh-Hadamard transforms, and for odd |det|
the structure is the divisibility chain of the eigenvalues, read off a
coprime base with no factoring; for even |det| it is one Smith pass of L
modulo the solver's delta.  A group reads it whenever the recognizer
accepts its graph; every other graph, and every matrix given as such
(determinant, invariant_factors of an IntMatrix, snf), takes the LU.

Both solvers are engines of one interface on the lattice Im B: `size`,
`delta` (delta * B^-1 integral; negative on the LU at times), `determinant`,
`_scaled_inverse(v)` = delta * B^-1 v, `_times(y)` = B y for the witness
check, and `core()` for the Smith diagonal.  `solve`, `class_order` (bound
into both classes) and `subgroup_order` are written once over it.

Everything runs over Python's arbitrary-precision integers; the algorithms are
deterministic so test expectations are bit-stable.  Desk scale: dimensions up
to a few hundred.
"""

from __future__ import annotations

from decimal import Decimal
from functools import cached_property
from itertools import count, islice
from math import gcd, lcm, prod
from typing import Iterator, Sequence, Union

from ._record import Record
from .errors import InfiniteCokernel, OutOfRange, ValidationFailed
from .graphs import AnyGraph, SinkedGraph


class IntMatrix(Record):
    """A rows x cols integer matrix, its entries a tuple of row tuples."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]):
        if rows < 0 or cols < 0:
            raise ValueError("dimensions must be nonnegative")
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry shape does not match dimensions")
        super().__init__(rows, cols, entries)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> IntMatrix:
        """The matrix of rows of Python ints, taken as given: the shape is
        checked, the entries' types are not; `jsonio.load_matrix` is where
        text becomes an int."""
        entries = tuple(map(tuple, rows))
        ncols = len(entries[0]) if entries else 0
        return IntMatrix(len(entries), ncols, entries)

    def transpose(self) -> IntMatrix:
        columns = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return IntMatrix(self.cols, self.rows, columns)

    def mul_vector(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))


class SmithDecomposition(Record):
    """U @ A @ V = D with U, V unimodular and D = diag(d1 | d2 | ...)."""

    __slots__ = ("u", "d", "v")

    def diagonal(self) -> tuple[int, ...]:
        return self.d.diagonal()


class GroupStructure(Record):
    """A finite abelian group by its invariant factors d_1 | d_2 | ..., each
    above 1.  The order is their product.  The elementary divisors need
    every d_i factored, so they are computed when first read."""

    __slots__ = ("invariant_factors", "__dict__")

    @cached_property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @cached_property
    def elementary_divisors(self) -> tuple[int, ...]:
        return elementary_divisors_of(self.invariant_factors)

    def to_dict(self) -> dict:
        return {
            "invariant_factors": list(self.invariant_factors),
            "elementary_divisors": list(self.elementary_divisors),
            "order": decimal_string(self.order),
        }


def decimal_string(n: int) -> str:
    """n in decimal at any size: str(n) refuses over 4300 digits (CPython 3.10.7+)."""
    return str(Decimal(n))


# -- Laplacians ---------------------------------------------------------------


def laplacian(g: Union[AnyGraph, SinkedGraph]) -> IntMatrix:
    """Full Laplacian over all vertices in graph order; diagonal is the (out-)degree."""
    if isinstance(g, SinkedGraph):
        g = g.graph
    n = g.n
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        for j, m in g.row(i):
            row[i] += m
            row[j] = -m
    return IntMatrix.from_rows(rows)


def reduced_laplacian(g: SinkedGraph) -> IntMatrix:
    """Laplacian with the sink row and column removed, indexed by nonsink_order."""
    adj = g.adjacency()
    n = g.n_nonsink
    out = g.out_degrees
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = out[i]
        for j, m in adj[i]:
            rows[i][j] -= m
    return IntMatrix.from_rows(rows)


# -- the lattice queries of both engines, and the exact LU --------------------


def _solve(solver: LatticeSolver | WalshSolver, v: Sequence[int]) -> tuple[int, ...] | None:
    """Integer y with B y = v, or None if v is outside the lattice Im B: the
    (unique) y = B^-1 v is integral, checked by the engine's product B y."""
    w = solver._scaled_inverse(v)
    delta = solver.delta
    if any(z % delta for z in w):
        return None
    y = tuple(z // delta for z in w)
    if list(solver._times(y)) != list(v):
        raise ValidationFailed("lattice witness does not solve B y = v")
    return y


def _class_order(solver: LatticeSolver | WalshSolver, x: Sequence[int]) -> int:
    """Order of the class of x in the cokernel Z^n / Im B."""
    return abs(solver.delta) // gcd(solver.delta, *solver._scaled_inverse(x))


class LatticeSolver:
    """Exact LU of B = A^T for a square integer A, and the lattice Im A^T it
    decides: membership with witnesses, the orders of cokernel classes, det A
    and the core behind the Smith diagonal.

    The LU is one list of elimination steps, each (row r, column c, pivot p,
    unit, [(row i, f)], [(column j, u)]): it pivots on B[r][c] = p, updates
    the listed rows i not yet pivoted, each with its multiplier f, and
    records the nonzero entries u of row r in the columns not yet pivoted,
    its row of U.  The steps run in place on a copy of the rows of B.

    Unit steps come first, at every size, in the manner of
    Dumas-Saunders-Villard 2001.  A sweep visits the rows not yet pivoted in
    order and pivots each on its entry equal to +-1 whose column has the
    fewest nonzeros left (the first such on ties), which keeps fill-in down;
    sweeps repeat while one finds a pivot.  The update row_i -= f * row_r
    touches only the pivot row's nonzeros and needs no division, so entries
    stay small and det B is unchanged up to the pivot signs.

    Bareiss steps (Bareiss 1968) then take the remaining columns in order,
    each on the first row left with a nonzero there, and update every row
    left by row_i = (p * row_i - f * row_r) / p', with p' the previous
    Bareiss pivot (1 at first).  Every division is exact, since the entries
    stay minors of B.  A column with no nonzero left is skipped, so
    len(steps) is the rank of B, and a singular A is refused with
    InfiniteCokernel, its free rank being the number of rows less the rank.
    delta, the last Bareiss pivot (1 without Bareiss steps), satisfies
    |delta| = |det A|, and determinant is det A with its sign.

    _scaled_inverse replays the steps on v and back-substitutes, which gives
    w = delta * B^-1 v exactly, for the shared `solve` and `class_order`;
    a witness is checked by the dense product B y.

    core() is the Schur complement the unit steps leave: the rows and columns
    not yet pivoted when the Bareiss steps start (all of B when no entry is
    +-1, none when every pivot is a unit).  Unit steps are
    unimodular row operations, after which the pivoted rows and columns form
    a triangular block with +-1 diagonal and the other rows are zero in the
    pivoted columns.  So B ~ diag(I, core), and the Smith diagonal of the
    core is that of B less leading ones; invariant_factors takes it there.
    """

    def __init__(self, a: IntMatrix):
        if not a.is_square():
            raise ValueError("lattice solving needs a square matrix")
        self.b = a.transpose()
        self._times = self.b.mul_vector
        n = self.size = a.rows
        rows = [list(r) for r in self.b.entries]
        # The rows and columns not yet pivoted, in order.  A pivot's position
        # among them counts the inversions it adds to the row or column
        # order of the steps, so with one more for each unit pivot -1 the
        # parity gives the sign of det B / delta.
        active = list(range(n))
        cols = list(range(n))
        parity = 0
        steps = []
        # count[j]: nonzeros of column j in the rows not yet pivoted.
        count = [n - col.count(0) for col in zip(*rows)]
        progress = True
        while progress:
            progress = False
            for r in list(active):
                row = rows[r]
                if 1 not in row and -1 not in row:
                    continue
                c = -1
                for j, x in enumerate(row):
                    if (x == 1 or x == -1) and (c < 0 or count[j] < count[c]):
                        c = j
                progress = True
                p = row[c]
                parity += active.index(r) + cols.index(c) + (p < 0)
                active.remove(r)
                cols.remove(c)
                urow = [(j, x) for j, x in enumerate(row) if x and j != c]
                for j, _ in urow:
                    count[j] -= 1
                count[c] = 0
                elim = []
                for i in active:
                    ri = rows[i]
                    f = ri[c]
                    if f:
                        f *= p
                        ri[c] = 0
                        elim.append((i, f))
                        for j, x in urow:
                            y = ri[j]
                            z = y - f * x
                            ri[j] = z
                            if not y:
                                count[j] += 1
                            elif not z:
                                count[j] -= 1
                steps.append((r, c, p, True, elim, urow))
        # The rows left, copied before the Bareiss steps change them; their
        # entries in the columns left are the core.
        self._core = ([rows[r][:] for r in active], cols)
        # Columns are taken in order, so a Bareiss pivot adds inversions
        # only by its row.
        prev = 1
        for t, c in enumerate(cols):
            for k, r in enumerate(active):
                if rows[r][c]:
                    break
            else:
                continue
            parity += k
            del active[k]
            row = rows[r]
            p = row[c]
            rest = cols[t + 1:]
            elim = []
            for i in active:
                ri = rows[i]
                f = ri[c]
                elim.append((i, f))
                for j in rest:
                    ri[j] = (ri[j] * p - f * row[j]) // prev
            steps.append((r, c, p, False, elim, [(j, row[j]) for j in rest if row[j]]))
            prev = p
        self.steps = steps
        if len(steps) < n:
            raise InfiniteCokernel(n - len(steps))
        self.delta = prev
        self.determinant = -prev if parity % 2 else prev

    def core(self) -> IntMatrix:
        rows, cols = self._core
        entries = tuple(tuple(row[c] for c in cols) for row in rows)
        return IntMatrix(len(rows), len(cols), entries)

    def _scaled_inverse(self, v: Sequence[int]) -> list[int]:
        """delta * B^-1 v, exactly.

        The steps replay forward on w = v, then back substitution from the
        last step gives p x_c = delta w_r - sum u x_j."""
        if len(v) != self.size:
            raise ValueError("dimension mismatch")
        w = list(v)
        prev = 1
        for r, _, p, unit, elim, _ in self.steps:
            wr = w[r]
            if not unit:
                for i, f in elim:
                    w[i] = (w[i] * p - f * wr) // prev
                prev = p
            elif wr:
                for i, f in elim:
                    w[i] -= f * wr
        delta = self.delta
        x = [0] * len(w)
        for r, c, p, _, _, urow in reversed(self.steps):
            acc = delta * w[r]
            for j, u in urow:
                acc -= u * x[j]
            x[c] = acc // p
        return x

    solve = _solve
    class_order = _class_order


# -- Cayley cones of Z_2^d: the Walsh-Hadamard route -----------------------------


def _walsh(v: list[int]) -> list[int]:
    """H v for the Hadamard matrix H[a][x] = (-1)^(a.x) of order len(v) = 2^d,
    by d passes of Good's (1958) factorization: each pass lists the sums and
    then the differences of the pairs (v_2i, v_2i+1)."""
    for _ in range(len(v).bit_length() - 1):
        even, odd = v[::2], v[1::2]
        v = [x + y for x, y in zip(even, odd)] + [x - y for x, y in zip(even, odd)]
    return v


def cayley_spectrum(graph: SinkedGraph) -> list[int] | None:
    """The eigenvalues lambda_a of the reduced Laplacian L of a cone over a
    Cayley graph of Z_2^d, in O(V + E); None for any other graph.

    The graph qualifies when it is undirected with 2^d non-sink vertices,
    each joined to the sink by the same n >= 1 edges, and index row x is
    exactly {x xor s: m_s} for the multiset {s: m_s} of row 0.  Then
    L chi_a = lambda_a chi_a for each character chi_a(x) = (-1)^(a.x), with
    lambda_a = n + sum_s m_s (1 - (-1)^(a.s)) = out - (H m)_a (Godsil-Royle;
    Bai 2003): the list is out - H m, every entry positive.  Vertex order is
    part of the input: a Cayley graph under another labelling is refused.
    """
    size = graph.n_nonsink
    sink = graph.sink_mult
    if (graph.directed or not size or size & (size - 1) or sink[0] < 1
            or sink.count(sink[0]) != size):
        return None
    adjacency = graph.adjacency()
    gens = dict(adjacency[0])
    for x, row in enumerate(adjacency):
        if len(row) != len(gens):
            return None
        for y, m in row:
            if gens.get(x ^ y) != m:
                return None
    m = [0] * size
    for s, k in gens.items():
        m[s] = k
    out = graph.out_degrees[0]
    return [out - x for x in _walsh(m)]


class WalshSolver:
    """The lattice Im L of a cone that `cayley_spectrum` accepts, with the
    queries of LatticeSolver and no matrix built.

    The characters diagonalise L: L = H diag(lambda) H / 2^d, since they
    are the rows of H and H^2 = 2^d I.  So with E = lcm(lambda_a) and
    delta = 2^d E, delta L^-1 v = H diag(E / lambda_a) H v, two transforms,
    for the shared `solve` and `class_order`; a witness is checked by the
    graph's own sparse product, `SinkedGraph.fire` (L^T = L here).  det L is
    the product of the lambda_a.  core() is L itself, for the one Smith pass
    of invariant_factors modulo delta when |det| is even.
    """

    def __init__(self, graph: SinkedGraph, spectrum: Sequence[int]):
        self.graph = graph
        self._times = graph.fire
        self.spectrum = tuple(spectrum)
        self.size = len(spectrum)
        self.determinant = prod(spectrum)
        e = lcm(*set(spectrum))
        self.delta = self.size * e
        self._weights = [e // x for x in spectrum]

    def core(self) -> IntMatrix:
        return reduced_laplacian(self.graph)

    def _scaled_inverse(self, v: Sequence[int]) -> list[int]:
        """delta * L^-1 v, exactly."""
        if len(v) != self.size:
            raise ValueError("dimension mismatch")
        return _walsh([w * x for w, x in zip(self._weights, _walsh(list(v)))])

    solve = _solve
    class_order = _class_order


def _cyclic_chain(orders: Sequence[int]) -> tuple[int, ...]:
    """The invariant factors, each above 1, of the direct sum of the Z_o over
    the positive orders o, with no factoring.

    A coprime base (Bernstein 2005) of the distinct orders is a set of
    pairwise coprime b > 1 of whose powers every order is a product; the
    loop keeps the base coprime and splits x and b by g = gcd(x, b) into g,
    b/g and x/g, which lowers the product of all the numbers held, so it
    ends.  By CRT each Z_o is the sum of the Z_(b^e) of its base powers, and
    for each b the exponents, largest first, go to the largest invariant
    factors: d_n gets every b to its largest exponent, d_(n-1) the next.
    """
    counts: dict[int, int] = {}
    for o in orders:
        counts[o] = counts.get(o, 0) + 1
    base: list[int] = []
    todo = [o for o in counts if o > 1]
    while todo:
        x = todo.pop()
        for i, b in enumerate(base):
            g = gcd(x, b)
            if g > 1:
                del base[i]
                todo += [y for y in (g, b // g, x // g) if y > 1]
                break
        else:
            base.append(x)
    chain: list[int] = []
    for b in base:
        exponents = []
        for o, c in counts.items():
            e = 0
            while o % b == 0:
                o //= b
                e += 1
            if e:
                exponents += [e] * c
        exponents.sort(reverse=True)
        chain += [1] * (len(exponents) - len(chain))
        for k, e in enumerate(exponents):
            chain[k] *= b**e
    if prod(chain) != prod(orders):
        raise ValidationFailed("the orders do not factor over their coprime base")
    return tuple(reversed(chain))


def determinant(a: IntMatrix) -> int:
    """det A, read from the LU of A^T (det A^T = det A); 0 when A is singular."""
    if not a.is_square():
        raise ValueError("determinant needs a square matrix")
    try:
        return LatticeSolver(a).determinant
    except InfiniteCokernel:
        return 0


# -- Smith normal form ----------------------------------------------------------


def _find_pivot(m, t, rows, cols):
    """Nonzero entry of minimal absolute value in m[t:, t:], earliest position on ties."""
    best = None
    best_pos = None
    for i in range(t, rows):
        mi = m[i]
        for j in range(t, cols):
            x = mi[j]
            if x:
                ax = -x if x < 0 else x
                if best is None or ax < best:
                    best = ax
                    best_pos = (i, j)
                    if ax == 1:
                        return best_pos
    return best_pos


def _balanced(x: int, modulus: int) -> int:
    r = x % modulus
    return r - modulus if r > modulus // 2 else r


def _smith_eliminate(m: list[list[int]], rows: int, cols: int, modulus: int | None = None) -> None:
    """Diagonalize the leading rows x cols block of the rows m, in place.

    Each step moves the entry of least absolute value left in the block to
    the pivot position (_find_pivot), subtracts multiples of the pivot row
    from the rows below it and then multiples of the pivot column from the
    columns to its right; a nonzero remainder is smaller than the pivot and
    becomes the next one.  Row operations act on whole rows, so columns past
    cols record them; column operations act on every row, so rows past rows
    record them.  On return the block is diagonal with its nonzero entries
    first; they need be neither positive nor a divisibility chain.

    Given a modulus, every entry is kept in the balanced range modulo it;
    cokernel_diagonal says what the diagonal then presents.
    """
    half = modulus // 2 if modulus else 0
    extra = m[rows:]
    for t in range(min(rows, cols)):
        while True:
            pos = _find_pivot(m, t, rows, cols)
            if pos is None:
                return
            i0, j0 = pos
            if i0 != t:
                m[t], m[i0] = m[i0], m[t]
            if j0 != t:
                for row in m:
                    row[t], row[j0] = row[j0], row[t]
            mt = m[t]
            pivot = mt[t]
            # Row operations touch only the pivot row's nonzero columns.  A
            # unit pivot leaves no remainder, so one pass clears column t and
            # the column step below then zeroes the rest of row t.  With a
            # modulus, every remainder r has |r| < |pivot| <= modulus / 2, so
            # it is already balanced.
            nz = [(j, mt[j]) for j in range(t + 1, len(mt)) if mt[j]]
            clean = True
            for i in range(t + 1, rows):
                mi = m[i]
                f = mi[t]
                if f:
                    q = f // pivot
                    r = mi[t] = f - q * pivot
                    if r:
                        clean = False
                    if modulus:
                        for j, x in nz:
                            r = (mi[j] - q * x) % modulus
                            mi[j] = r - modulus if r > half else r
                    else:
                        for j, x in nz:
                            mi[j] -= q * x
            if not clean:
                continue
            # Column t is now zero in the block except at the pivot, so the
            # column operations change row t and the rows past rows only.
            for j, x in nz:
                if j >= cols:
                    break
                q = x // pivot
                r = mt[j] = x - q * pivot
                if r:
                    clean = False
                for row in extra:
                    row[j] -= q * row[t]
            if clean:
                break


def _divisibility_chain(d: list[int], u: list[list[int]] | None = None,
                        v: list[list[int]] | None = None) -> None:
    """Turn the positive entries d into the divisibility chain of the same
    group, in place, by one lexicographic pass of 2x2 (gcd, lcm) steps.

    The step on (a, b) = (d_i, d_j), when a does not divide b, writes
    diag(g, ab/g) = S diag(a, b) T with g = gcd(a, b), s a + t b = g and the
    unimodular S = [[s, t], [-b/g, a/g]], T = [[1, -tb/g], [1, sa/g]].  Once
    i has met every j > i, d_i is the gcd of d_i, ..., d_n and divides each
    of them, and later steps keep that, so one pass suffices.  Given the rows
    u of U and v of V, S acts on rows i, j of U and T on columns i, j of V,
    which keeps U A V = D.
    """
    n = len(d)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = d[i], d[j]
            if b % a == 0:
                continue
            g = gcd(a, b)
            ag, bg = a // g, b // g
            d[i], d[j] = g, ag * b
            if u is None:
                continue
            s = pow(ag, -1, bg)
            t = (1 - s * ag) // bg
            ui, uj = u[i], u[j]
            u[i] = [s * x + t * y for x, y in zip(ui, uj)]
            u[j] = [ag * y - bg * x for x, y in zip(ui, uj)]
            for row in v:
                x, y = row[i], row[j]
                row[i], row[j] = x + y, s * ag * y - t * bg * x


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Deterministic Smith normal form with transforms.

    _smith_eliminate runs over the integers on A bordered by identities: row
    i is row i of A followed by e_i, and the rows e_1, ..., e_cols sit below
    A, so the appended columns end up holding U and the appended rows V,
    with U A V diagonal.  The pivots are then made nonnegative (negating
    rows of U) and _divisibility_chain turns the nonzero ones into a chain,
    applying each of its steps to U and V.
    """
    rows, cols = a.rows, a.cols
    m = [list(row) + [int(i == k) for k in range(rows)] for i, row in enumerate(a.entries)]
    m += [[int(i == j) for j in range(cols)] for i in range(cols)]
    _smith_eliminate(m, rows, cols)
    u = [row[cols:] for row in m[:rows]]
    v = m[rows:]
    pivots = [m[i][i] for i in range(min(rows, cols))]
    for i, x in enumerate(pivots):
        if x < 0:
            u[i] = [-y for y in u[i]]
    chain = [abs(x) for x in pivots if x]  # the nonzero pivots come first
    _divisibility_chain(chain, u, v)
    d = [[0] * cols for _ in range(rows)]
    for i, x in enumerate(chain):
        d[i][i] = x
    return SmithDecomposition(
        IntMatrix(rows, rows, tuple(map(tuple, u))),
        IntMatrix(rows, cols, tuple(map(tuple, d))),
        IntMatrix(cols, cols, tuple(map(tuple, v))),
    )


def cokernel_diagonal(a: IntMatrix, modulus: int) -> tuple[int, ...]:
    """The Smith diagonal of a, given a modulus with modulus * Z^cols inside
    the row lattice of a: the invariant-factor chain, padded with leading ones
    to min(rows, cols) entries.

    _smith_eliminate runs modulo the modulus.  Shifting an entry by the
    modulus is a row operation against implicit rows modulus * e_j, so the
    cyclic orders gcd(d_i, modulus) present coker(a) / modulus coker(a).
    That is coker(a) itself under the hypothesis, which holds when the
    modulus is a multiple of the exponent of coker(a), as |det| is for a
    nonsingular square matrix.
    """
    m = [[_balanced(x, modulus) for x in row] for row in a.entries]
    _smith_eliminate(m, a.rows, a.cols, modulus)
    orders = [gcd(m[i][i], modulus) for i in range(min(a.rows, a.cols))]
    chain = [x for x in orders if x > 1]
    _divisibility_chain(chain)
    return (1,) * (len(orders) - len(chain)) + tuple(chain)


def subgroup_order(solver: LatticeSolver | WalshSolver, vectors: Sequence[Sequence[int]]) -> int:
    """The order of the span of the vectors' classes: the class map
    x -> delta * B^-1 x mod |delta| has kernel Im B, so it is the product of
    |delta| / x over the cokernel_diagonal of their images modulo |delta|."""
    modulus = abs(solver.delta)
    images = IntMatrix.from_rows([solver._scaled_inverse(v) for v in vectors])
    return prod(modulus // x for x in cokernel_diagonal(images, modulus))


# Miller-Rabin on the first 13 prime bases decides primality of every
# n below this bound (Sorenson-Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981
_RHO_STEPS = 2**20


def _strong_probable_prime(n: int) -> bool:
    """Miller-Rabin on _MR_BASES for n > 1.  False proves n composite; True
    proves n prime when n < _MR_BOUND."""
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A proper divisor of the odd composite n (Brent 1980), deterministic:
    the polynomials x^2 + c are tried for c = 1, 2, ...; each candidate is a
    gcd with n, so the divisor is exact.  It proves a split or refuses: once
    the cycle lengths r, summed over the polynomials and checked once per
    doubling, pass _RHO_STEPS = 2^20, it raises OutOfRange.  That is 8 times
    the longest cycle any test or benchmark input needs (2^17).  Rho takes
    about sqrt(p) steps for the least prime p of n, so an n whose least
    prime is above about 40 bits is refused, in about a second."""
    spent = 0
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            spent += r
            if spent > _RHO_STEPS:
                raise OutOfRange(f"rho found no factor of a {n.bit_length()}-bit composite "
                                 f"in {_RHO_STEPS} steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # The batched product overshot: step back one value at a time.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e}, primes ascending; it proves or refuses.

    Miller-Rabin proves every prime below _MR_BOUND and Pollard-Brent rho
    splits every composite within its budget _RHO_STEPS.  What they cannot
    settle, a strong probable prime at or above the bound or a composite rho
    does not split, raises OutOfRange, so no input runs on.
    """
    factors: dict[int, int] = {}
    if n <= 1:
        return factors
    for p in _MR_BASES:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if not _strong_probable_prime(m):
            d = _pollard_brent(m)
            stack += [d, m // d]
        elif m < _MR_BOUND:
            factors[m] = factors.get(m, 0) + 1
        else:
            raise OutOfRange(f"{m.bit_length()}-bit probable prime above the Miller-Rabin bound")
    return dict(sorted(factors.items()))


def _probe_vectors(n: int) -> Iterator[list[int]]:
    """Fixed vectors with entries in [-8, 8], from a linear congruential
    sequence."""
    x = 1
    while True:
        v = []
        for _ in range(n):
            x = (1103515245 * x + 12345) % 2**31
            v.append(x % 17 - 8)
        yield v


def invariant_factors(a: IntMatrix | LatticeSolver | WalshSolver) -> GroupStructure:
    """Cokernel structure of a square nonsingular integer matrix, or of the
    matrix a solver was built for (its LU, or its spectrum, is then reused).

    A WalshSolver with odd |det| gives K = (+)_a Z_(lambda_a): the characters
    chi_a have orders dividing lambda_a, they span 2^d Z^V (their sum over a
    is 2^d e_0, and translations are automorphisms that fix the sink), and
    2^d is invertible on K, so they generate K; |K| = prod lambda_a then makes
    every order exact and the sum direct.  The structure is _cyclic_chain of
    the lambda_a.  With even |det| its core, L itself, takes one Smith pass
    modulo its delta = 2^d lcm(lambda_a): delta L^-1 = H diag(delta / (2^d
    lambda_a)) H is integral, so delta kills the cokernel.

    Every LatticeSolver runs the steps below on |det| and the core its unit
    steps leave, whose Smith diagonal is that of A^T less leading ones.
    E, the lcm of the class orders of two fixed vectors
    (Eberly-Giesbrecht-Villard 2000), divides the exponent d_n of the
    cokernel G.  Elimination modulo m yields G/mG, the orders gcd(d_i, m).
    - r = |det|/E = 1: E = |det| is the exponent, so G is cyclic and no
      elimination runs.
    - E^2 <= |det|: the core is eliminated modulo E.  The product equals
      |det| exactly when E is a multiple of the exponent.  If it falls short
      by s, E * s is one (its p-adic valuation is mu + sum (a_i - mu)^+ >=
      max a_i for each prime p), and one more pass with it must give |det|.
    - E^2 > |det|: the core is eliminated modulo the smaller r, and every
      order but the last is kept.  E divides d_n, so r = d_1 ... d_{n-1} *
      (d_n / E) is a multiple of each d_i with i < n, and the orders kept,
      gcd(d_i, r), are d_1, ..., d_{n-1} even when E falls short of d_n.
      d_n is then |det| over their product; it must be a multiple of E
      whose gcd with r is the order dropped.
    A failed check, or a product other than |det|, raises ValidationFailed.
    """
    if isinstance(a, WalshSolver) and a.determinant % 2:
        return GroupStructure(_cyclic_chain(a.spectrum))
    if not isinstance(a, IntMatrix):
        solver = a
    elif not a.is_square():
        raise ValueError("invariant factors need a square matrix")
    else:
        solver = LatticeSolver(a)
    order = abs(solver.determinant)
    if isinstance(solver, WalshSolver):
        diag = cokernel_diagonal(solver.core(), solver.delta)
    else:
        e = lcm(*map(solver.class_order, islice(_probe_vectors(solver.size), 2)))
        r = order // e
        if r == 1:
            return GroupStructure((order,) if order > 1 else ())
        core = solver.core()
        if e * e > order:
            *diag, last = cokernel_diagonal(core, r)
            exponent = order // prod(diag)
            if exponent % e or gcd(exponent, r) != last:
                raise ValidationFailed("the orders modulo |det|/E do not fit |det|")
            diag.append(exponent)
        else:
            diag = cokernel_diagonal(core, e)
            found = prod(diag)
            if found != order and order % found == 0:
                diag = cokernel_diagonal(core, e * (order // found))
    if prod(diag) != order:
        raise ValidationFailed("invariant factors do not multiply to |det|")
    return GroupStructure(tuple(x for x in diag if x != 1))


def elementary_divisors_of(factors: Sequence[int]) -> tuple[int, ...]:
    """Prime-power multiset of a direct sum of cyclic groups of the given orders."""
    out: list[int] = []
    for f in factors:
        if f <= 0:
            raise ValueError("cyclic orders must be positive")
        out += [p**e for p, e in _factorize(f).items()]
    return tuple(sorted(out))
