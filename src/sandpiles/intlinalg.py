"""Exact integer linear algebra: Laplacians, determinants, cokernels and
lattice membership.

Two eliminations with bounded coefficients answer every question about the
lattice Im L^T of a nonsingular L.  One fraction-free (Bareiss) LU of L^T
gives det L, and replaying it on a vector v gives det * (L^T)^-1 v, behind
witnesses and class orders; elimination modulo |det| gives the Smith
diagonal.  The Smith normal form with transforms serves only the `snf` command
and the free rank of singular input.

Everything runs over Python's arbitrary-precision integers; the algorithms are
deterministic so test expectations are bit-stable.  Desk scale: dimensions up
to a few hundred.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
from typing import Sequence, Union

from .errors import InfiniteCokernel, ValidationFailed
from .graphs import AnyGraph, Digraph, Multigraph, SinkedGraph


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("dimensions must be nonnegative")
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry shape does not match dimensions")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> IntMatrix:
        entries = tuple(tuple(int(x) for x in row) for row in rows)
        ncols = len(entries[0]) if entries else 0
        return IntMatrix(len(entries), ncols, entries)

    @staticmethod
    def identity(n: int) -> IntMatrix:
        return IntMatrix.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zero(rows: int, cols: int) -> IntMatrix:
        return IntMatrix(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    def transpose(self) -> IntMatrix:
        return IntMatrix(
            self.cols, self.rows,
            tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)),
        )

    def mul(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        ot = other.transpose().entries
        rows = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
            for row in self.entries
        )
        return IntMatrix(self.rows, other.cols, rows)

    def mul_vector(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V = D with U, V unimodular and D = diag(d1 | d2 | ...)."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return self.d.diagonal()


@dataclass(frozen=True)
class GroupStructure:
    """A finite abelian group in both standard presentations."""

    invariant_factors: tuple[int, ...]
    elementary_divisors: tuple[int, ...]
    order: int

    def to_dict(self) -> dict:
        return {
            "invariant_factors": list(self.invariant_factors),
            "elementary_divisors": list(self.elementary_divisors),
            "order": str(self.order),
        }


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


# -- determinant and LU (Bareiss, fraction-free) --------------------------------


def _bareiss(m: list[list[int]]) -> tuple[int, int, list[int]]:
    """Fraction-free LU of the square matrix m, in place (Bareiss 1968).

    Returns (sign, last pivot, swaps); sign * pivot is det m, and the pivot
    is 0 when m is singular (elimination stops there).  Every division is
    exact, so entries stay minors of the input.  On return the upper
    triangle holds U, whose diagonal is the pivot sequence p_0, ..., p_{n-1};
    below the diagonal m[i][k] keeps the multiplier of step k, as in
    Nakos-Turner-Williams 1997; swaps[k] is the row exchanged with row k
    before step k.  _lu_solve replays the steps on a vector.
    """
    n = len(m)
    sign = 1
    prev = 1
    swaps: list[int] = []
    for k in range(n):
        i = k
        while i < n and m[i][k] == 0:
            i += 1
        if i == n:
            return sign, 0, swaps
        if i != k:
            m[k], m[i] = m[i], m[k]
            sign = -sign
        swaps.append(i)
        pivot = m[k][k]
        mk = m[k]
        for i in range(k + 1, n):
            mi = m[i]
            f = mi[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pivot - f * mk[j]) // prev
        prev = pivot
    return sign, prev, swaps


def _lu_solve(lu: list[list[int]], swaps: Sequence[int], v: Sequence[int]) -> list[int]:
    """delta * B^-1 v for the matrix B that _bareiss factored into lu, where
    delta is its last pivot; every division is exact."""
    w = list(v)
    for k, i in enumerate(swaps):
        w[k], w[i] = w[i], w[k]
    n = len(w)
    # Forward: the Bareiss steps on w as an extra column,
    # w_i = (w_i p_k - L_ik w_k) / p_{k-1}, row by row.
    for i in range(1, n):
        row = lu[i]
        wi = w[i]
        prev = 1
        for k in range(i):
            pivot = lu[k][k]
            wi = (wi * pivot - row[k] * w[k]) // prev
            prev = pivot
        w[i] = wi
    # Back substitution scaled by delta:
    # x_i = (delta w_i - sum_{j>i} U_ij x_j) / U_ii.
    delta = lu[n - 1][n - 1] if n else 1
    x = [0] * n
    for i in range(n - 1, -1, -1):
        row = lu[i]
        acc = delta * w[i]
        for j in range(i + 1, n):
            acc -= row[j] * x[j]
        x[i] = acc // row[i]
    return x


def determinant(a: IntMatrix) -> int:
    if not a.is_square():
        raise ValueError("determinant needs a square matrix")
    sign, pivot, _ = _bareiss([list(row) for row in a.entries])
    return sign * pivot


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


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Deterministic Smith normal form with transforms.

    Pivoting picks the nonzero entry of minimal absolute value in the working
    submatrix and reduces rows/columns modulo the pivot before eliminating,
    which keeps coefficient growth in check on cube-cone Laplacians.
    """
    rows, cols = a.rows, a.cols
    m = [list(row) for row in a.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i1, i2):
        m[i1], m[i2] = m[i2], m[i1]
        u[i1], u[i2] = u[i2], u[i1]

    def swap_cols(j1, j2):
        for row in m:
            row[j1], row[j2] = row[j2], row[j1]
        for row in v:
            row[j1], row[j2] = row[j2], row[j1]

    def add_row(dst, src, q):
        # row[dst] -= q * row[src]
        mdst, msrc = m[dst], m[src]
        for j in range(cols):
            mdst[j] -= q * msrc[j]
        udst, usrc = u[dst], u[src]
        for j in range(rows):
            udst[j] -= q * usrc[j]

    def add_col(dst, src, q):
        # col[dst] -= q * col[src]
        for row in m:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        pos = _find_pivot(m, t, rows, cols)
        if pos is None:
            break
        i0, j0 = pos
        if i0 != t:
            swap_rows(t, i0)
        if j0 != t:
            swap_cols(t, j0)

        while True:
            # Clear column t, restarting whenever a smaller remainder shows up.
            dirty = False
            for i in range(rows):
                if i == t or m[i][t] == 0:
                    continue
                q = m[i][t] // m[t][t]
                add_row(i, t, q)
                if m[i][t]:
                    swap_rows(t, i)
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(cols):
                if j == t or m[t][j] == 0:
                    continue
                q = m[t][j] // m[t][t]
                add_col(j, t, q)
                if m[t][j]:
                    swap_cols(t, j)
                    dirty = True
                    break
            if dirty:
                continue
            break

        if m[t][t] < 0:
            for j in range(cols):
                m[t][j] = -m[t][j]
            for j in range(rows):
                u[t][j] = -u[t][j]

        # Divisibility: fold any non-divisible entry into the pivot's row and redo.
        pivot = m[t][t]
        offending = None
        for i in range(t + 1, rows):
            mi = m[i]
            for j in range(t + 1, cols):
                if mi[j] % pivot:
                    offending = i
                    break
            if offending is not None:
                break
        if offending is not None:
            add_row(t, offending, -1)
            continue
        t += 1

    d = [[0] * cols for _ in range(rows)]
    for i in range(min(rows, cols)):
        d[i][i] = m[i][i]
    return SmithDecomposition(
        IntMatrix.from_rows(u) if rows else IntMatrix(0, 0, ()),
        IntMatrix.from_rows(d) if rows else IntMatrix(0, cols, tuple()),
        IntMatrix.from_rows(v) if cols else IntMatrix(cols, 0, tuple(() for _ in range(cols))),
    )


def _balanced(x: int, modulus: int) -> int:
    r = x % modulus
    return r - modulus if r > modulus // 2 else r


def _smith_diagonal_mod(a: IntMatrix, modulus: int) -> list[int]:
    """Elimination diagonal with every entry kept reduced modulo the modulus.

    Valid whenever the row lattice of a already contains modulus * Z^cols, as
    it does for a nonsingular square matrix with |det| = modulus, or for any
    stack of rows that includes one: shifting an entry by the modulus is then
    a row operation against those implicit rows.  The true cyclic orders are
    gcd(g_i, modulus).
    """
    rows, cols = a.rows, a.cols
    m = [[_balanced(x, modulus) for x in row] for row in a.entries]

    for t in range(min(rows, cols)):
        while True:
            pos = _find_pivot(m, t, rows, cols)
            if pos is None:
                break
            i0, j0 = pos
            if i0 != t:
                m[t], m[i0] = m[i0], m[t]
            if j0 != t:
                for row in m:
                    row[t], row[j0] = row[j0], row[t]
            pivot = m[t][t]
            clean = True
            for i in range(t + 1, rows):
                if m[i][t]:
                    q = m[i][t] // pivot
                    mi, mt = m[i], m[t]
                    for j in range(t, cols):
                        mi[j] = _balanced(mi[j] - q * mt[j], modulus)
                    if mi[t]:
                        clean = False
            if not clean:
                continue
            # Column t is now zero below the pivot (and above it, from
            # earlier steps), so the column operations change row t only.
            mt = m[t]
            for j in range(t + 1, cols):
                if mt[j]:
                    mt[j] = _balanced(mt[j] % pivot, modulus)
                    if mt[j]:
                        clean = False
            if clean:
                break
    return [m[i][i] for i in range(min(rows, cols))]


def _divisibility_chain(orders: Sequence[int]) -> list[int]:
    """Normalize cyclic orders into the invariant-factor chain by gcd/lcm sweeps."""
    chain = sorted(x for x in orders if x > 1)
    changed = True
    while changed:
        changed = False
        for i in range(len(chain)):
            for j in range(i + 1, len(chain)):
                if chain[j] % chain[i]:
                    g = gcd(chain[i], chain[j])
                    chain[i], chain[j] = g, chain[i] // g * chain[j]
                    changed = True
        if changed:
            chain.sort()
    return [x for x in chain if x > 1]


def cokernel_diagonal(a: IntMatrix, modulus: int) -> tuple[int, ...]:
    """The Smith diagonal of a, given a modulus with modulus * Z^cols inside
    the row lattice of a: the invariant-factor chain, padded with leading ones
    to min(rows, cols) entries."""
    orders = [gcd(g, modulus) for g in _smith_diagonal_mod(a, modulus)]
    chain = _divisibility_chain(orders)
    return (1,) * (len(orders) - len(chain)) + tuple(chain)


# Miller-Rabin on the first 13 prime bases decides primality of every
# n below this bound (Sorenson-Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


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
    gcd with n, so the divisor is exact."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
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


def _trial_division(n: int, factors: dict[int, int]) -> None:
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e}, primes ascending.

    Miller-Rabin separates primes from composites and Pollard-Brent rho
    splits the composites.  A probable prime at or above _MR_BOUND, where
    Miller-Rabin proves nothing, falls back to trial division, so every
    reported prime is proven.
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
            _trial_division(m, factors)
    return dict(sorted(factors.items()))


def group_structure_from_diagonal(diag: Sequence[int]) -> GroupStructure:
    invariant = tuple(d for d in diag if d not in (0, 1))
    return GroupStructure(invariant, elementary_divisors_of(invariant), prod(invariant))


def _infinite_cokernel(a: IntMatrix) -> InfiniteCokernel:
    rank = sum(1 for d in smith_normal_form(a).diagonal() if d)
    return InfiniteCokernel(a.rows - rank)


def invariant_factors(a: IntMatrix) -> GroupStructure:
    """Cokernel structure of a square nonsingular integer matrix.

    The diagonal is computed with entries reduced modulo |det|, which keeps
    coefficient growth flat at any dimension this package meets; the chain is
    then recovered through gcd(., det) and gcd/lcm normalization.
    """
    if not a.is_square():
        raise ValueError("invariant factors need a square matrix")
    det = determinant(a)
    if det == 0:
        raise _infinite_cokernel(a)
    structure = group_structure_from_diagonal(cokernel_diagonal(a, abs(det)))
    if structure.order != abs(det):
        raise ValidationFailed("invariant factors do not multiply to |det|")
    return structure


def elementary_divisors_of(factors: Sequence[int]) -> tuple[int, ...]:
    """Prime-power multiset of a direct sum of cyclic groups of the given orders."""
    out: list[int] = []
    for f in factors:
        if f <= 0:
            raise ValueError("cyclic orders must be positive")
        if f == 1:
            continue
        for p, e in _factorize(f).items():
            out.append(p**e)
    return tuple(sorted(out))


# -- lattice membership ----------------------------------------------------------


class LatticeSolver:
    """Decides membership in the lattice Im A^T of a nonsingular square A,
    produces witnesses, and gives the orders of cokernel classes.

    Built from one fraction-free LU of A^T (the _bareiss loop), whose last
    pivot delta satisfies |delta| = |det A|.  Each query replays the
    elimination on v and back-substitutes, which gives w = delta * (A^T)^-1 v
    exactly: v lies in the lattice exactly when delta divides every entry of
    w, and the quotient is the (unique) witness.
    """

    def __init__(self, a: IntMatrix):
        if not a.is_square():
            raise ValueError("lattice solving needs a square matrix")
        self.a = a
        self.b = a.transpose()
        self._lu = [list(row) for row in self.b.entries]
        sign, self._delta, self._swaps = _bareiss(self._lu)
        if self._delta == 0:
            raise _infinite_cokernel(a)
        self.determinant = sign * self._delta

    def _scaled_inverse(self, v: Sequence[int]) -> list[int]:
        if len(v) != self.b.rows:
            raise ValueError("dimension mismatch")
        return _lu_solve(self._lu, self._swaps, v)

    def solve(self, v: Sequence[int]) -> tuple[int, ...] | None:
        """Integer y with A^T y = v, or None if v is outside the lattice."""
        w = self._scaled_inverse(v)
        if any(z % self._delta for z in w):
            return None
        y = tuple(z // self._delta for z in w)
        if self.b.mul_vector(y) != tuple(v):
            raise ValidationFailed("lattice witness does not solve A^T y = v")
        return y

    def class_order(self, x: Sequence[int]) -> int:
        """Order of the class of x in the cokernel."""
        return abs(self._delta) // gcd(self._delta, *self._scaled_inverse(x))


def lattice_membership(a: IntMatrix, v: Sequence[int]) -> tuple[int, ...] | None:
    """Witness y with A^T y = v over the integers, or None (a normal outcome)."""
    return LatticeSolver(a).solve(v)


# -- small helpers used across the package ---------------------------------------


def matrix_is_unimodular(a: IntMatrix) -> bool:
    return a.is_square() and abs(determinant(a)) == 1
