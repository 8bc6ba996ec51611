"""Independent answers that the benchmark checks the library against.

Nothing here imports `sandpiles`.  Each oracle takes a different route to the
answer than the library does: graphs are read from the benchmark's own edge
lists, stabilization is a plain stack of topplings, recurrence is
"stab(c + beta) == c", lattice membership is exact `Fraction` elimination,
and determinants and p-ranks are taken modulo word-size primes with numpy.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Sequence


class SpecGraph:
    """Non-sink arc lists of a graph given as {"vertices", "sink", "edges", "directed"}.

    The non-sink order is the vertex order with the sink removed, which is the
    order the library uses for configurations.
    """

    def __init__(self, spec: dict):
        self.sink = spec["sink"]
        self.directed = bool(spec["directed"])
        self.order = [v for v in spec["vertices"] if v != self.sink]
        index = {v: i for i, v in enumerate(self.order)}
        n = self.n = len(self.order)
        self.out = [0] * n
        self.to_sink = [0] * n
        arcs: list[dict[int, int]] = [{} for _ in range(n)]
        for u, v, m in spec["edges"]:
            for a, b in ((u, v),) if self.directed else ((u, v), (v, u)):
                if a == self.sink:
                    continue
                i = index[a]
                self.out[i] += m
                if b == self.sink:
                    self.to_sink[i] += m
                else:
                    j = index[b]
                    arcs[i][j] = arcs[i].get(j, 0) + m
        self.arcs = [tuple(a.items()) for a in arcs]

    def laplacian_rows(self) -> list[list[int]]:
        """Reduced Laplacian L: out-degree on the diagonal, minus arc counts off it."""
        rows = [[0] * self.n for _ in range(self.n)]
        for i in range(self.n):
            rows[i][i] = self.out[i]
            for j, m in self.arcs[i]:
                rows[i][j] -= m
        return rows

    def is_stable(self, c: Sequence[int]) -> bool:
        return len(c) == self.n and all(0 <= x < d for x, d in zip(c, self.out))

    def stabilize(self, c: Sequence[int]) -> tuple[list[int], list[int]]:
        """Topple from a stack until no vertex holds its out-degree."""
        c = list(c)
        out, arcs = self.out, self.arcs
        fired = [0] * self.n
        stack = [i for i in range(self.n) if c[i] >= out[i]]
        while stack:
            i = stack.pop()
            k = c[i] // out[i]
            if k <= 0:
                continue
            c[i] -= k * out[i]
            fired[i] += k
            for j, m in arcs[i]:
                before = c[j]
                c[j] = before + k * m
                if before < out[j] <= c[j]:
                    stack.append(j)
        return c, fired

    def minus_lt_times(self, c: Sequence[int], f: Sequence[int]) -> list[int]:
        """c - L^T f, as a sparse product over the arc lists."""
        res = [x - d * k for x, d, k in zip(c, self.out, f)]
        for i, k in enumerate(f):
            if k:
                for j, m in self.arcs[i]:
                    res[j] += m * k
        return res

    def is_recurrent(self, c: Sequence[int]) -> bool:
        """Undirected recurrence: c is stable and stab(c + beta) == c."""
        if self.directed:
            raise ValueError("the burning criterion needs an undirected graph")
        if not self.is_stable(c):
            return False
        after, _ = self.stabilize([x + b for x, b in zip(c, self.to_sink)])
        return after == list(c)

    def max_stable(self) -> list[int]:
        return [d - 1 for d in self.out]

    def recurrent_set(self, limit: int) -> set[tuple[int, ...]]:
        """Closure of the maximal stable configuration under add-one-and-stabilize."""
        start = tuple(self.stabilize(self.max_stable())[0])
        seen = {start}
        todo = [start]
        while todo:
            c = todo.pop()
            for v in range(self.n):
                bumped = list(c)
                bumped[v] += 1
                nxt = tuple(self.stabilize(bumped)[0])
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
                    if len(seen) > limit:
                        raise ValueError("recurrent set exceeds the limit")
        return seen

    def is_closed_recurrent_set(self, recs: set[tuple[int, ...]], det: int) -> bool:
        """True iff recs is exactly the recurrent set.

        A set that holds stab(max stable), is closed under adding a chip and
        stabilizing, and has |det L| elements contains the whole recurrent set
        and no more, because the recurrent set is the least such set and has
        |det L| elements.
        """
        if len(recs) != abs(det):
            return False
        if tuple(self.stabilize(self.max_stable())[0]) not in recs:
            return False
        for c in recs:
            for v in range(self.n):
                bumped = list(c)
                bumped[v] += 1
                if tuple(self.stabilize(bumped)[0]) not in recs:
                    return False
        return True


class RationalLattice:
    """Membership in Im L^T by exact Fraction elimination on L^T."""

    def __init__(self, graph: SpecGraph):
        rows = graph.laplacian_rows()
        n = graph.n
        # Gauss-Jordan on [L^T | I] over the rationals.
        aug = [
            [Fraction(rows[j][i]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
            for i in range(n)
        ]
        for col in range(n):
            piv = next(r for r in range(col, n) if aug[r][col] != 0)
            aug[col], aug[piv] = aug[piv], aug[col]
            p = aug[col][col]
            prow = [x / p for x in aug[col]]
            aug[col] = prow
            for r in range(n):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [x - f * y for x, y in zip(aug[r], prow)]
        self.inverse = [row[n:] for row in aug]

    def contains(self, v: Sequence[int]) -> bool:
        """True iff L^T y = v has an integer solution y."""
        for row in self.inverse:
            if sum((a * x for a, x in zip(row, v) if x), Fraction(0)).denominator != 1:
                return False
        return True

    def congruent(self, x: Sequence[int], y: Sequence[int]) -> bool:
        return self.contains([a - b for a, b in zip(x, y)])


# -- modular linear algebra (numpy) ------------------------------------------------

_WORD_PRIMES: list[int] = []


def _word_primes(count: int) -> list[int]:
    """The largest primes below 2**31, so products of two residues fit in int64."""
    from sympy import prevprime

    while len(_WORD_PRIMES) < count:
        _WORD_PRIMES.append(prevprime(_WORD_PRIMES[-1] if _WORD_PRIMES else 2**31))
    return _WORD_PRIMES[:count]


def _eliminate_mod(rows: list[list[int]], p: int) -> tuple[int, int]:
    """(rank, determinant mod p) of an integer matrix, by elimination mod p."""
    if p < 2**31:
        import numpy as np

        a = np.array(rows, dtype=object) % p
        a = a.astype(np.int64)
        nr, nc = a.shape
        rank, det = 0, 1
        for col in range(nc):
            if rank == nr:
                break
            nz = np.nonzero(a[rank:, col])[0]
            if len(nz) == 0:
                det = 0
                continue
            r = rank + int(nz[0])
            if r != rank:
                a[[rank, r]] = a[[r, rank]]
                det = -det
            piv = int(a[rank, col])
            det = det * piv % p
            inv = pow(piv, -1, p)
            factors = (a[rank + 1 :, col] * inv) % p
            a[rank + 1 :, col:] = (a[rank + 1 :, col:] - np.outer(factors, a[rank, col:]) % p) % p
            rank += 1
        return rank, (det % p if rank == nr == nc else 0)
    a = [[x % p for x in row] for row in rows]
    nr, nc = len(a), len(a[0]) if a else 0
    rank, det = 0, 1
    for col in range(nc):
        if rank == nr:
            break
        r = next((r for r in range(rank, nr) if a[r][col]), None)
        if r is None:
            det = 0
            continue
        if r != rank:
            a[rank], a[r] = a[r], a[rank]
            det = -det
        piv = a[rank][col]
        det = det * piv % p
        inv = pow(piv, -1, p)
        for r2 in range(rank + 1, nr):
            f = a[r2][col] * inv % p
            if f:
                a[r2] = [(x - f * y) % p for x, y in zip(a[r2], a[rank])]
        rank += 1
    return rank, (det % p if rank == nr == nc else 0)


def rank_mod(rows: list[list[int]], p: int) -> int:
    return _eliminate_mod(rows, p)[0]


def determinant(rows: list[list[int]]) -> int:
    """Exact determinant by CRT over word-size primes, sized by Hadamard's bound."""
    n = len(rows)
    if n == 0:
        return 1
    bound = prod(max(1, sum(x * x for x in row)) for row in rows)
    bits = (bound.bit_length() + 1) // 2 + 2
    primes = _word_primes(bits // 30 + 1)
    value, modulus = 0, 1
    for p in primes:
        r = _eliminate_mod(rows, p)[1]
        # Combine value (mod modulus) with r (mod p).
        t = (r - value) * pow(modulus, -1, p) % p
        value += modulus * t
        modulus *= p
    return value - modulus if value > modulus // 2 else value


def factor(n: int) -> dict[int, int]:
    from sympy import factorint

    return {int(p): int(e) for p, e in factorint(abs(n)).items()}


def elementary_divisors(cyclic_orders: Sequence[int]) -> list[int]:
    out = []
    for f in cyclic_orders:
        for p, e in factor(f).items():
            out.append(p**e)
    return sorted(out)


def is_divisibility_chain(factors: Sequence[int]) -> bool:
    return all(b % a == 0 for a, b in zip(factors, factors[1:])) and all(f > 1 for f in factors)


def prime_powers_of(n: int, primes: Sequence[int]) -> list[int]:
    """Split n into prime powers over a known prime list; [] if n has another prime."""
    out = []
    for p in primes:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append(p**e)
    return out if n == 1 else []


def check_structure(invariant: Sequence[int], elementary: Sequence[int], order: int,
                    facts: dict) -> bool:
    """Group structure against |det| and the p-ranks of L mod each prime p."""
    det = abs(facts["det"])
    if order != det or prod(invariant) != det or not is_divisibility_chain(list(invariant)):
        return False
    primes = [p for p, _, _ in facts["primes"]]
    expect_elem: list[int] = []
    for f in invariant:
        parts = prime_powers_of(f, primes)
        if not parts and f != 1:
            return False
        expect_elem.extend(parts)
    if sorted(expect_elem) != list(elementary):
        return False
    for p, _, p_rank in facts["primes"]:
        if sum(1 for f in invariant if f % p == 0) != p_rank:
            return False
    return True


def check_element_order(lattice: RationalLattice, c: Sequence[int], k: int, det: int) -> bool:
    """k is the order of the class of c: k*c lies in Im L^T and (k/p)*c does not.

    The identity is congruent to 0, so the class of c - e is the class of c.
    """
    if k < 1 or abs(det) % k:
        return False
    if not lattice.contains([k * x for x in c]):
        return False
    return all(not lattice.contains([(k // p) * x for x in c]) for p in factor(k))


def check_uniform_hom(src: dict, tgt: dict, mapping: dict[str, str], subset: Sequence[str],
                      kind: str) -> tuple[bool, int | None]:
    """(clauses hold, common fiber size over the subset or None).

    Re-derives the fiber-size, stability and degree-count clauses of a
    subset-uniform homomorphism from the benchmark's own edge lists.
    """
    directed = kind == "directed"

    def mult_table(spec):
        table: dict[tuple[str, str], int] = {}
        for u, v, m in spec["edges"]:
            table[(u, v)] = table.get((u, v), 0) + m
            if not spec["directed"]:
                table[(v, u)] = table.get((v, u), 0) + m
        return table

    sm, tm = mult_table(src), mult_table(tgt)
    fibers: dict[str, list[str]] = {x: [] for x in tgt["vertices"]}
    for v in src["vertices"]:
        fibers[mapping[v]].append(v)
    sizes = {len(fibers[x]) for x in subset}
    degree = sizes.pop() if len(sizes) == 1 else None
    if degree is None and not directed:
        return False, None
    for x in subset:
        for u in fibers[x]:
            if kind == "uniform" and any(sm.get((u, w), 0) for w in fibers[x]):
                return False, degree
            for y in tgt["vertices"]:
                if y == x and not directed:
                    continue
                found = sum(sm.get((u, w), 0) for w in fibers[y] if w != u)
                if found != tm.get((x, y), 0):
                    return False, degree
    return True, degree
