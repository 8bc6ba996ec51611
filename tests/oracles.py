"""Independent oracles the tests check the library against.

Each oracle deliberately takes a different route than the implementation:
determinants by permutation expansion, lattice membership by rational
elimination, Smith diagonals by determinantal divisors, spanning trees by
subset enumeration, group counts by brute force, stabilization by a random
toppling schedule, burning orders by greedy sweeps, representatives by the
Le Borgne-Rossin lift, recurrent sets by a breadth-first closure, subcube
embeddings by bit arithmetic, the stripe decomposition by summing one element
of every stripe subgroup, homomorphism clauses by looking up label pairs.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd, prod

from sandpiles.cubes import BitMask, cube_cone, stripe_subgroup
from sandpiles.dynamics import sandpile_group, stabilize
from sandpiles.errors import ClauseViolation, NotSurjective, NotUndirected, UnknownVertex
from sandpiles.graphs import Multigraph, SinkedGraph, cone, subcube
from sandpiles.intlinalg import IntMatrix, reduced_laplacian, smith_normal_form
from sandpiles.morphisms import UniformHom, VertexMap, pullback


def det_by_permutation_expansion(a: IntMatrix) -> int:
    n = a.rows
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for the sign
        inv = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if seen[i] > seen[j]
        )
        sign = -1 if inv % 2 else 1
        prod = 1
        for i in range(n):
            prod *= a.entries[i][perm[i]]
            if prod == 0:
                break
        total += sign * prod
    return total


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The product a @ b, entry by entry."""
    if a.cols != b.rows:
        raise ValueError("dimension mismatch")
    return IntMatrix.from_rows(
        [[sum(a.entries[i][k] * b.entries[k][j] for k in range(a.cols)) for j in range(b.cols)]
         for i in range(a.rows)]
    )


def rational_solve(a: IntMatrix, v: list[int]) -> list[Fraction] | None:
    """Solve A x = v over the rationals by Gaussian elimination; None if singular
    or inconsistent."""
    n, m = a.rows, a.cols
    rows = [[Fraction(x) for x in row] + [Fraction(v[i])] for i, row in enumerate(a.entries)]
    pivot_cols = []
    r = 0
    for c in range(m):
        pivot = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
        if r == n:
            break
    for i in range(r, n):
        if rows[i][m] != 0:
            return None
    sol = [Fraction(0)] * m
    for i, c in enumerate(pivot_cols):
        sol[c] = rows[i][m]
    return sol


def _echelon_by_fractions(rows) -> tuple[int, Fraction]:
    """(rank, product of the pivots times the sign of the row swaps) of an
    integer matrix, by Gaussian elimination over Q; for a square matrix of
    full rank the second entry is its determinant."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    cols = len(m[0]) if m else 0
    r = 0
    det = Fraction(1)
    for c in range(cols):
        p = next((i for i in range(r, n) if m[i][c]), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            det = -det
        det *= m[r][c]
        for i in range(r + 1, n):
            f = m[i][c] / m[r][c]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r, det


def det_by_fractions(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Gaussian elimination over Q."""
    rank, det = _echelon_by_fractions(rows)
    return int(det) if rank == len(rows) else 0


def smith_diagonal_by_minors(a: IntMatrix) -> tuple[int, ...]:
    """The Smith diagonal d_1 | d_2 | ... of a, min(rows, cols) entries, from
    determinantal divisors: D_k = d_1 ... d_k is the gcd of the k x k minors.

    D_(k-1) divides every k x k minor, so the gcd for a given k stops as soon
    as it reaches D_(k-1).  Past the rank (by elimination over Q) every
    minor is 0, and so is every later d_k.
    """
    n = min(a.rows, a.cols)
    rank, _ = _echelon_by_fractions(a.entries)
    diag: list[int] = []
    prev = 1
    for k in range(1, rank + 1):
        g = 0
        for rs in itertools.combinations(range(a.rows), k):
            for cs in itertools.combinations(range(a.cols), k):
                g = gcd(g, det_by_fractions([[a.entries[i][j] for j in cs] for i in rs]))
                if g == prev:
                    break
            if g == prev:
                break
        diag.append(g // prev)
        prev = g
    return tuple(diag) + (0,) * (n - rank)


def membership_by_rational_solve(a: IntMatrix, v: list[int]) -> bool:
    """v in Im A^T over Z, decided by solving the transposed system rationally
    and checking integrality (complete for nonsingular A)."""
    sol = rational_solve(a.transpose(), list(v))
    if sol is None:
        return False
    return all(x.denominator == 1 for x in sol)


def kronecker_sum(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """A (x) I + I (x) B with A's index fastest: row j*|A| + i pairs i of A with j of B.

    This is the Laplacian of a cartesian product from the factors' Laplacians,
    entry by entry, without building the product graph.
    """
    n, m = a.rows, b.rows
    return IntMatrix.from_rows(
        [
            [
                (a.entries[i][i2] if j == j2 else 0) + (b.entries[j][j2] if i == i2 else 0)
                for j2 in range(m)
                for i2 in range(n)
            ]
            for j in range(m)
            for i in range(n)
        ]
    )


def spanning_tree_count(g: Multigraph) -> int:
    """Brute-force count: parallel edges are distinct edges."""
    unit_edges = []
    for u, v, m in g.edges():
        unit_edges.extend([(g.index(u), g.index(v))] * m)
    n = g.n
    if n <= 1:
        return 1
    count = 0
    for subset in itertools.combinations(range(len(unit_edges)), n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for k in subset:
            u, v = unit_edges[k]
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if acyclic:
            count += 1
    return count


def burning_script_by_fixed_point(g: SinkedGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Speer's script as the least fixed point of
    sigma_v = max(1, ceil(sum_u m(u->v) sigma_u / out_v)), iterated up from all
    ones, with beta_v = out_v sigma_v - sum_u m(u->v) sigma_u."""
    vs = g.nonsink_order
    out = g.out_degrees
    into = [[g.arc_multiplicity(u, v) for u in vs] for v in vs]
    sigma = [1] * len(vs)
    while True:
        nxt = [
            max(1, -(-sum(m * s for m, s in zip(into[v], sigma)) // out[v]))
            for v in range(len(vs))
        ]
        if nxt == sigma:
            break
        sigma = nxt
    beta = [out[v] * sigma[v] - sum(m * s for m, s in zip(into[v], sigma)) for v in range(len(vs))]
    return tuple(sigma), tuple(beta)


def burning_order_by_sweeps(g: SinkedGraph, c) -> tuple[str, ...] | None:
    """The burning order of c (the non-sink vertices in toppling order, v
    repeated sigma_v times), or None when c is not stable and recurrent.

    Greedy sweeps over c + beta, with the script of the fixed-point oracle:
    each sweep fires every ready vertex once, v at most sigma_v times in all.
    Complete because firing only adds chips elsewhere.
    """
    out = g.out_degrees
    if not all(0 <= x < d for x, d in zip(c, out)):
        return None
    sigma, beta = burning_script_by_fixed_point(g)
    adj = g.adjacency()
    work = [x + b for x, b in zip(c, beta)]
    left = list(sigma)
    order: list[str] = []
    progress = True
    while progress:
        progress = False
        for i, d in enumerate(out):
            if left[i] and work[i] >= d:
                left[i] -= 1
                order.append(g.nonsink_order[i])
                work[i] -= d
                for j, m in adj[i]:
                    work[j] += m
                progress = True
    return None if any(left) else tuple(order)


def stabilize_by_random_schedule(
    g: SinkedGraph, values, rng: random.Random
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Stabilization firing one random unstable vertex at a time, each
    toppling subtracting its row of the dense reduced Laplacian."""
    rows = reduced_laplacian(g).entries
    c = list(values)
    firings = [0] * len(c)
    while unstable := [i for i, d in enumerate(g.out_degrees) if c[i] >= d]:
        i = rng.choice(unstable)
        c = [x - t for x, t in zip(c, rows[i])]
        firings[i] += 1
    return tuple(c), tuple(firings)


def lift_by_le_borgne_rossin(g: SinkedGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The lift (b, f) of Le Borgne and Rossin (2002): stabilizing
    a = 2 out - 1 fires f and leaves b = a - stab(a) >= out."""
    a = [2 * d - 1 for d in g.out_degrees]
    stable, f = stabilize(g, a)
    return tuple(p - q for p, q in zip(a, stable)), f


def representative_by_le_borgne_rossin(g: SinkedGraph, x) -> tuple[int, ...]:
    """The recurrent representative stab(x + k b), with b the lift of
    `lift_by_le_borgne_rossin` and k the least count that makes
    x + k b >= out - 1, found by trying k = 0, 1, ..."""
    b, _ = lift_by_le_borgne_rossin(g)
    k = 0
    while any(xi + k * bi < d - 1 for xi, bi, d in zip(x, b, g.out_degrees)):
        k += 1
    return stabilize(g, [xi + k * bi for xi, bi in zip(x, b)])[0]


def recurrents_by_closure(g: SinkedGraph) -> frozenset[tuple[int, ...]]:
    """The recurrent set as the closure of the maximal stable configuration
    under adding one chip at any vertex and stabilizing, breadth first, every
    step that reaches an out-degree through the public stabilize (a chip
    added below it leaves the configuration stable)."""
    out = g.out_degrees
    m = tuple(d - 1 for d in out)
    seen = {m}
    frontier = [m]
    while frontier:
        nxt = []
        for c in frontier:
            for v in range(len(c)):
                w = c[:v] + (c[v] + 1,) + c[v + 1:]
                if w[v] >= out[v]:
                    w, _ = stabilize(g, w)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return frozenset(seen)


def all_masks(d: int) -> list[BitMask]:
    """Every 0/1 mask of length d, in the order of their bit masks."""
    return [tuple((m >> i) & 1 for i in range(d)) for m in range(1 << d)]


def direct_sum_by_enumeration(d: int) -> tuple[int, int]:
    """(distinct sums, tuples summed) over every choice of one element from
    each stripe subgroup of cone(Q_d), each sum formed by the group law.
    Both equal |K| exactly when K is the direct sum of the stripe subgroups.
    Meant for d <= 3: at d = 4 there would be |K| ~ 2.7e10 sums."""
    group = sandpile_group(cube_cone(d))
    sums = {group.identity.values}
    tuples = 1
    for mask in all_masks(d):
        elements = stripe_subgroup(d, mask).elements
        tuples *= len(elements)
        sums = {group.add_values(s, el) for s in sums for el in elements}
    return len(sums), tuples


def all_stable_configs(out_degrees):
    return itertools.product(*(range(d) for d in out_degrees))


def factor_by_trial_division(n: int) -> dict[int, int]:
    """Prime factorization by dividing out every d with d * d <= n."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def subgroup_order_by_smith_form(a: IntMatrix, vectors) -> int:
    """The order of the span of the classes of the vectors in Z^n / Im A^T,
    for a nonsingular square A: |det A| / |coker [A; vectors]|, both from the
    full Smith normal form with transforms instead of a modular diagonal."""
    stacked = IntMatrix.from_rows(list(a.entries) + [list(v) for v in vectors])
    return prod(smith_normal_form(a).diagonal()) // prod(smith_normal_form(stacked).diagonal())


def image_order_by_smith_form(hom: UniformHom) -> int:
    """|K(source)| / |coker [L_src; P(e_1); ...; P(e_n)]|: the span of the
    pulled-back unit vectors in the column quotient Z^m / Im L_src."""
    lap = reduced_laplacian(hom.source)
    n = hom.target.n_nonsink
    images = [pullback(hom, [int(i == j) for i in range(n)]) for j in range(n)]
    return subgroup_order_by_smith_form(lap.transpose(), images)


def image_order_by_enumeration(hom: UniformHom) -> int:
    """The number of distinct source classes among the pullbacks of a cover
    of the target's classes; meant for target groups of at most 10^4 elements.

    The cover is the recurrent set of an undirected target.  A digraph's
    recurrents represent Z^n / Im L^T, while the directed pullback acts on
    Z^n / Im L, so a digraph target is covered by the box [0, |K|)^n
    instead, since |K| Z^n lies in Im L.  Source classes are told apart by
    their recurrent representatives, which needs an undirected source.
    """
    g_src = sandpile_group(hom.source)
    g_tgt = sandpile_group(hom.target)
    if hom.target.directed:
        cover = itertools.product(range(g_tgt.order), repeat=hom.target.n_nonsink)
    else:
        cover = g_tgt.recurrents()
    return len({g_src.representative(pullback(hom, c)).values for c in cover})


def subcube_embeddings_by_bits(d: int, mask, configs, n: int = 1) -> list[tuple[int, ...]]:
    """Each configuration on the masked subcube's n-cone boxed with the
    identity of the complementary subcube's n-cone, in cube vertex order, by
    bit arithmetic instead of labels: cube vertex x takes the entry at x & m
    among the submasks of m in increasing order (the subcube's vertex
    order), plus the identity's entry at x & ~m among the submasks of ~m."""
    m = sum(b << i for i, b in enumerate(mask))
    full = (1 << d) - 1
    sub = {x: i for i, x in enumerate(x for x in range(1 << d) if x & ~m == 0)}
    comp = {x: i for i, x in enumerate(x for x in range(1 << d) if x & m == 0)}
    identity = sandpile_group(cone(subcube(d, [1 - b for b in mask]), n)).identity.values
    return [
        tuple(c[sub[x & m]] + identity[comp[x & ~m & full]] for x in range(1 << d))
        for c in configs
    ]


def hom_clauses_by_pairs(vmap: VertexMap, subset, kind: str, require_surjective: bool = False):
    """The four clauses of `morphisms.validate_hom` by their definition, one
    label pair at a time, in its order and with its witnesses; returns
    (subset, kind, degree, surjective) or raises what validate_hom raises.

    Multiplicities are edges of the multigraph for the uniform and weak
    kinds, arcs of the sandpile digraph view for the directed kind; a plain
    Multigraph has no such view and is refused before any clause."""
    directed = kind == "directed"
    mults, vertices = [], []
    for g in (vmap.source, vmap.target):
        base = g.graph if isinstance(g, SinkedGraph) else g
        if not directed and not isinstance(base, Multigraph):
            raise NotUndirected("uniform/weak homomorphisms need undirected multigraphs")
        if directed and isinstance(g, Multigraph):
            raise NotUndirected(
                "directed validation needs a digraph or a sinked graph to orient edges")
        mults.append(g.arc_multiplicity if directed else base.multiplicity)
        vertices.append(base.vertices)
    (src_mult, tgt_mult), (src_vertices, tgt_vertices) = mults, vertices
    f = vmap.mapping
    subset = set(subset)
    unknown = subset - set(tgt_vertices)
    if unknown:
        raise UnknownVertex(f"subset vertex {sorted(unknown)[0]!r} not in target")
    subset_order = [x for x in tgt_vertices if x in subset]
    fibers = {x: [v for v in src_vertices if f[v] == x] for x in tgt_vertices}
    surjective = all(fibers.values())
    if require_surjective and not surjective:
        empty = next(x for x in tgt_vertices if not fibers[x])
        raise NotSurjective(f"fiber over {empty!r} is empty")

    sizes = {len(fibers[x]) for x in subset_order if fibers[x]}
    if len(sizes) > 1 and not directed:
        small = min(subset_order, key=lambda x: len(fibers[x]))
        big = max(subset_order, key=lambda x: len(fibers[x]))
        raise ClauseViolation("fiber-size", (small, len(fibers[small]), big, len(fibers[big])))
    degree = sizes.pop() if len(sizes) == 1 else (None if directed else 0)

    complement = [v for v in src_vertices if f[v] not in subset]
    if len({f[v] for v in complement}) != len(complement):
        raise ClauseViolation("identity-on-complement", tuple(complement))
    for u in complement:
        for w in complement:
            if u < w and (src_mult(u, w) != tgt_mult(f[u], f[w])
                          or src_mult(w, u) != tgt_mult(f[w], f[u])):
                raise ClauseViolation("identity-on-complement", (u, w))

    if kind == "uniform":
        for x in subset_order:
            for u in fibers[x]:
                for w in fibers[x]:
                    if w != u and src_mult(u, w):
                        raise ClauseViolation("stability", (x, u, w))

    for x in subset_order:
        for u in fibers[x]:
            for y in tgt_vertices:
                if y == x and not directed:
                    continue
                found = sum(src_mult(u, w) for w in fibers[y] if w != u)
                if found != tgt_mult(x, y):
                    raise ClauseViolation("degree-count", (u, y, found, tgt_mult(x, y)))
    return frozenset(subset), kind, degree, surjective
