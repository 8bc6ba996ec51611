"""Seeded inputs for the four workloads, with the facts their checks need.

Run as a child process by run.py, so that sympy and numpy never load into the
process whose memory and time are measured:

    python3 perfbench/inputs.py --workload structure --seed 1 --reach 0

prints one JSON object: {"graphs": {id: {"build", "spec", "facts"}}, "ops": [...]}.
A graph's "build" names the public constructor the benchmark calls; its "spec"
is the benchmark's own vertex and edge list, in the library's vertex order;
its "facts" (determinant, prime factors, p-ranks) come from oracles.py.

Random graphs are drawn from the seed and kept in fixed quotas per stratum of
the largest prime factor of the group order, so that every seed gives the
same mix of cheap and expensive factorisations.  A graph beyond the per-op
budget is not dropped: it becomes a reach op.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402

SINK = "s"


# -- graph specs, in the library's vertex order -------------------------------------


def _spec(vertices, edges, sink=SINK, directed=False) -> dict:
    return {"vertices": list(vertices), "sink": sink, "edges": [list(e) for e in edges],
            "directed": directed}


def _cube_label(x: int, d: int) -> str:
    return "v" + "".join(str((x >> i) & 1) for i in range(d))


def _cube_edges(d: int, members=None):
    members = range(1 << d) if members is None else members
    keep = set(members)
    return [(_cube_label(x, d), _cube_label(x ^ (1 << i), d), 1)
            for x in members for i in range(d) if x < x ^ (1 << i) and x ^ (1 << i) in keep]


def cube_cone(d: int, n: int) -> tuple[dict, dict]:
    labels = [_cube_label(x, d) for x in range(1 << d)]
    edges = _cube_edges(d) + [(v, SINK, n) for v in labels]
    return {"ctor": "cube_cone", "d": d, "n": n}, _spec(labels + [SINK], edges)


def subcube_cone(d: int, mask) -> tuple[dict, dict]:
    m = sum(b << i for i, b in enumerate(mask))
    members = [x for x in range(1 << d) if x & ~m == 0]
    labels = [_cube_label(x, d) for x in members]
    edges = _cube_edges(d, members) + [(v, SINK, 1) for v in labels]
    return {"ctor": "subcube_cone", "d": d, "mask": list(mask)}, _spec(labels + [SINK], edges)


def multigraph_cone(labels, edges, n=1) -> tuple[dict, dict]:
    spec = _spec(list(labels) + [SINK], list(edges) + [(v, SINK, n) for v in labels])
    return {"ctor": "cone", "n": n}, spec


def plain_multigraph(labels, edges) -> tuple[dict, dict]:
    return {"ctor": "multigraph"}, _spec(labels, edges, sink=None)


def thick_cone(r: int, t: int) -> tuple[dict, dict]:
    if r == t:
        return {"ctor": "thick", "r": r, "t": t}, _spec(
            ["v1", "v2", SINK], [("v1", "v2", r), ("v1", SINK, 1), ("v2", SINK, 1)])
    return {"ctor": "thick", "r": r, "t": t}, _spec(
        ["v1", "v2", SINK],
        [("v1", "v2", r), ("v2", "v1", t), ("v1", SINK, 1), ("v2", SINK, 1)], directed=True)


def cycle_cone(k: int) -> tuple[dict, dict]:
    labels = [f"v{i + 1}" for i in range(k)]
    edges = [(labels[i], labels[(i + 1) % k], 1) for i in range(k)]
    return {"ctor": "cycle_cone", "k": k}, multigraph_cone(labels, edges)[1]


def wired_grid(k: int) -> tuple[dict, dict]:
    """k x k grid whose boundary is wired to the sink, so every vertex has degree 4."""
    labels = [f"r{i}c{j}" for i in range(k) for j in range(k)]
    edges = []
    for i in range(k):
        for j in range(k):
            if i + 1 < k:
                edges.append((f"r{i}c{j}", f"r{i + 1}c{j}", 1))
            if j + 1 < k:
                edges.append((f"r{i}c{j}", f"r{i}c{j + 1}", 1))
            wires = (i == 0) + (i == k - 1) + (j == 0) + (j == k - 1)
            if wires:
                edges.append((f"r{i}c{j}", SINK, wires))
    return {"ctor": "sinked"}, _spec(labels + [SINK], edges)


def path_labels(k: int) -> list[str]:
    return [f"p{i}" for i in range(k)]


def product_cone(g_labels, g_edges, h_labels, h_edges, n=1) -> tuple[dict, dict]:
    """Cone of the cartesian product; vertex (g_i, h_j) sits at index j*|g| + i."""
    name = {(a, b): f"({a},{b})" for b in h_labels for a in g_labels}
    labels = [name[(a, b)] for b in h_labels for a in g_labels]
    edges = [(name[(u, b)], name[(v, b)], m) for b in h_labels for u, v, m in g_edges]
    edges += [(name[(a, u)], name[(a, v)], m) for a in g_labels for u, v, m in h_edges]
    return multigraph_cone(labels, edges, n)


def grid_cone(k: int) -> tuple[dict, dict]:
    labels = path_labels(k)
    edges = [(labels[i], labels[i + 1], 1) for i in range(k - 1)]
    _, spec = product_cone(labels, edges, labels, edges)
    return {"ctor": "grid_cone", "k": k}, spec


def random_multigraph(rng: random.Random, k: int) -> tuple[list[str], list[tuple]]:
    """Connected multigraph on k vertices: a random tree plus random extra edges,
    every multiplicity 1 or 2."""
    labels = [f"u{i}" for i in range(k)]
    mult: dict[tuple[int, int], int] = {}
    for i in range(1, k):
        mult[(rng.randrange(i), i)] = rng.choice((1, 2))
    for i in range(k):
        for j in range(i + 1, k):
            if (i, j) not in mult and rng.random() < 0.25:
                mult[(i, j)] = rng.choice((1, 2))
    return labels, [(labels[i], labels[j], m) for (i, j), m in sorted(mult.items())]


# -- facts --------------------------------------------------------------------------


def group_facts(spec: dict) -> dict:
    g = oracles.SpecGraph(spec)
    rows = g.laplacian_rows()
    det = oracles.determinant(rows)
    primes = oracles.factor(det)
    return {
        "det": det,
        "vertices": g.n,
        "det_bits": abs(det).bit_length(),
        "maxp_bits": max(primes, default=1).bit_length(),
        "primes": [[p, e, g.n - oracles.rank_mod(rows, p)] for p, e in sorted(primes.items())],
    }


def prime_bits(primes: dict[int, int]) -> tuple[int, int]:
    """Bit lengths of the largest and second-largest prime factor, with multiplicity.

    Trial division up to the square root of what is left runs to about
    max(second, sqrt(largest)), so the pair sets the cost of factoring.
    """
    flat = sorted(p for p, e in primes.items() for _ in range(e))
    return (flat[-1].bit_length() if flat else 0,
            flat[-2].bit_length() if len(flat) > 1 else 0)


def stratum(lo: int, hi: int, second: int):
    """Largest prime factor of lo..hi bits, second largest of at most `second` bits."""
    def test(primes):
        first, snd = prime_bits(primes)
        return lo <= first <= hi and snd <= second
    return test


def order_between(lo: int, hi: int):
    def test(primes):
        order = 1
        for p, e in primes.items():
            order *= p**e
        return lo <= order <= hi
    return test


class Inputs:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.graphs: dict[str, dict] = {}
        self.ops: list[dict] = []

    def graph(self, gid: str, made: tuple[dict, dict], facts: bool = True) -> str:
        if gid not in self.graphs:
            build, spec = made
            entry = {"build": build, "spec": spec, "facts": None}
            if facts:
                entry["facts"] = group_facts(spec)
            else:
                entry["facts"] = {"vertices": len(spec["vertices"]) - 1, "det_bits": None,
                                  "maxp_bits": None}
            self.graphs[gid] = entry
        return gid

    def op(self, name: str, gid: str | None = None, reach: bool = False, **args) -> None:
        self.ops.append({"op": name, "g": gid, "args": args, "reach": reach})

    def random_cones(self, name: str, test, sizes: list[int]) -> list[str]:
        """One random multigraph cone per entry of `sizes`, with that many
        vertices, redrawn until `test` accepts the prime factorisation
        {prime: exponent} of its group order."""
        found = []
        for k in sizes:
            for _ in range(3000):
                made = multigraph_cone(*random_multigraph(self.rng, k))
                primes = oracles.factor(oracles.determinant(
                    oracles.SpecGraph(made[1]).laplacian_rows()))
                if test(primes):
                    found.append(self.graph(f"{name}-{len(found)}", made))
                    break
            else:
                raise RuntimeError(f"no {k}-vertex cone for stratum {name}")
        return found

    def random_vector(self, n: int, lo: int, hi: int) -> list[int]:
        return [self.rng.randint(lo, hi) for _ in range(n)]

    def recurrent(self, gid: str) -> list[int]:
        """A recurrent configuration of an undirected graph, by the benchmark's
        own dynamics: stabilize max-stable plus a random vector."""
        g = oracles.SpecGraph(self.graphs[gid]["spec"])
        c = [m + self.rng.randint(0, 2) for m in g.max_stable()]
        return g.stabilize(c)[0]

    def grid_recurrent(self, gid: str) -> list[int]:
        """Each vertex at out-degree minus 1 or 2, at least one at minus 1.

        On a connected grid the vertices at minus 2 cannot form a forbidden
        subconfiguration, so these are recurrent without any toppling.
        """
        g = oracles.SpecGraph(self.graphs[gid]["spec"])
        c = [d - self.rng.randint(1, 2) for d in g.out]
        i = self.rng.randrange(g.n)
        c[i] = g.out[i] - 1
        return c


# -- workloads ----------------------------------------------------------------------


def structure(inp: Inputs, reach: bool) -> None:
    for d in range(2, 8):
        for n in (1, 3, 5):
            gid = inp.graph(f"cube{d}n{n}", cube_cone(d, n))
            inp.op("structure", gid)
    for d in range(2, 7):
        for k in (0, 1, 2):
            inp.op("verify_structure", inp.graph(f"cube{d}n{2 * k + 1}", cube_cone(d, 2 * k + 1)),
                   d=d, k=k)
    for d in range(2, 8):
        inp.op("verify_invariant_factor_count", inp.graph(f"cube{d}n1", cube_cone(d, 1)), d=d)
    inp.op("verify_decomposition", inp.graph("cube4n1", cube_cone(4, 1)), d=4,
           lattice_rank_ok=decomposition_spans(4))
    # Sizes cycle through fixed lists, so that every seed gives the same mix.
    smallp = inp.random_cones("rand-smallp", stratum(1, 20, 12), [10 + i % 7 for i in range(44)])
    largep = inp.random_cones("rand-largep", stratum(32, 36, 14), [14 + i % 9 for i in range(16)])
    for gid in smallp + largep:
        inp.op("structure", gid)
    if reach:
        inp.op("verify_decomposition", inp.graph("cube5n1", cube_cone(5, 1)),
               reach=True, d=5, lattice_rank_ok=decomposition_spans(5))
        inp.op("structure", inp.graph("cube8n1", cube_cone(8, 1)), reach=True)
        big = inp.random_cones("reach-hugep", stratum(65, 10**4, 16), [28])
        inp.op("structure", big[0], reach=True)


def decomposition_spans(d: int) -> bool:
    """Whether L plus the stripe generators span Z^(2^d): they do iff they have
    full rank modulo every prime dividing det L, because the span contains the
    rows of L and so has index dividing det L."""
    _, spec = cube_cone(d, 1)
    g = oracles.SpecGraph(spec)
    rows = g.laplacian_rows()
    for m in range(1, 1 << d):
        w = bin(m).count("1")
        rows.append([d if bin(x & m).count("1") % 2 == 0 else d - w for x in range(1 << d)])
    det = oracles.determinant(g.laplacian_rows())
    return all(oracles.rank_mod(rows, p) == g.n for p in oracles.factor(det))


def group_law(inp: Inputs, reach: bool) -> None:
    gids = [inp.graph(f"cube{d}n{n}", cube_cone(d, n)) for d in (3, 4, 5) for n in (1, 3)]
    gids += inp.random_cones("rand-smallp", stratum(1, 20, 12), [10, 12, 14, 16])
    gids += inp.random_cones("rand-largep", stratum(28, 32, 12), [13, 14, 15, 16])
    for gid in gids:
        g = oracles.SpecGraph(inp.graphs[gid]["spec"])
        inp.op("identity", gid)
        small = inp.random_vector(g.n, -3, 3)
        loaded = inp.random_vector(g.n, 0, 2 * max(g.out))
        negative = inp.random_vector(g.n, -2, 2)
        for i in inp.rng.sample(range(g.n), 2):
            negative[i] = -inp.rng.randint(10**4, 10**6)
        for x in (small, loaded, negative):
            inp.op("representative", gid, x=x)
        r1, r2 = inp.recurrent(gid), inp.recurrent(gid)
        inp.op("element_order", gid, c=r1)
        inp.op("element_order", gid, c=r2)
        shifted = [a + b for a, b in zip(r1, g.laplacian_rows()[inp.rng.randrange(g.n)])]
        inp.op("congruent", gid, x=shifted, y=r1)
        inp.op("congruent", gid, x=small, y=r2)
        inp.op("add", gid, c1=r1, c2=r2)
        inp.op("add", gid, c1=r2, c2=r2)
    if reach:
        inp.op("identity", inp.graph("cube6n1", cube_cone(6, 1)), reach=True)
        big = inp.random_cones("reach-hugep", stratum(52, 10**4, 16), [20])[0]
        inp.op("element_order", big, reach=True, c=inp.recurrent(big))


GRID_SIDES = (32, 48, 64)
GRID_CONE_SIDE = 24


def grid_dynamics(inp: Inputs, reach: bool) -> None:
    # Centre piles of 2^10..2^15 chips, two per grid.  Max-stable doubled and
    # recurrent sums run on the 32 and 48 grids only, so that a pass stays
    # near four seconds and a run holds three passes.
    piles = {32: (10, 13), 48: (11, 14), 64: (12, 15)}
    sums = {32: 2, 48: 1, 64: 0}
    for k in GRID_SIDES:
        gid = inp.graph(f"grid{k}", wired_grid(k), facts=False)
        n = k * k
        for e in piles[k]:
            inp.op("stabilize", gid, pile=[(k // 2) * k + k // 2, 2**e])
        if k < 64:
            inp.op("stabilize", gid, fill=6)
        for _ in range(24):
            c = inp.random_vector(n, 0, 2)
            for i in inp.rng.sample(range(n), n // 100):
                c[i] = inp.rng.randint(4, 12)
            inp.op("stabilize", gid, c=c)
        for _ in range(sums[k]):
            inp.op("recurrent_sum", gid, c1=inp.grid_recurrent(gid), c2=inp.grid_recurrent(gid))
        for _ in range(3):
            inp.op("burning", gid, c=inp.grid_recurrent(gid))
        inp.op("burning", gid, fill=1)
    side = GRID_CONE_SIDE
    gid = inp.graph(f"gridcone{side}", grid_cone(side), facts=False)
    for e in (10, 11, 12):
        inp.op("stabilize", gid, pile=[(side // 2) * side + side // 2, 2**e])
    inp.op("stabilize", gid, fill=8)
    for _ in range(4):
        inp.op("stabilize", gid, c=inp.random_vector(side * side, 0, 6))
    inp.op("recurrent_sum", gid, c1=inp.grid_recurrent(gid), c2=inp.grid_recurrent(gid))
    if reach:
        inp.op("identity", "grid32", reach=True)


def orbit(inp: Inputs, reach: bool) -> None:
    recs = [inp.graph(f"cube{d}n{n}", cube_cone(d, n)) for d, n in ((2, 1), (2, 3), (2, 5), (3, 1))]
    recs += [inp.graph(f"cycle{k}", cycle_cone(k)) for k in (6, 8, 10)]
    recs += inp.random_cones("rand-order1e2", order_between(400, 500), [5, 6])
    recs += inp.random_cones("rand-order1e3", order_between(4000, 5000), [6, 7])
    for gid in recs:
        inp.op("recurrents", gid)
    # The order of thick_k2_cone(r, t) is r + t + 1: fix it, draw a near-even split.
    for order in (400, 1600, 3000):
        r = order // 2 + inp.rng.choice((-1, 1)) * inp.rng.randint(1, order // 20)
        t = order - 1 - r
        gid = inp.graph(f"thick{r}-{t}", thick_cone(r, t))
        g = oracles.SpecGraph(inp.graphs[gid]["spec"])
        inp.op("recurrents", gid)
        rec = sorted(g.recurrent_set(10**5))
        inp.op("is_recurrent", gid, c=list(rec[inp.rng.randrange(len(rec))]))
        inp.op("is_recurrent", gid, c=[0, 0])
        inp.op("representative", gid, x=inp.random_vector(2, -50, 50))
    for d in (2, 3):
        for m in range(1, 1 << d):
            mask = [(m >> i) & 1 for i in range(d)]
            w = sum(mask)
            src = inp.graph(f"sub{d}-{m}", subcube_cone(d, mask))
            tgt = inp.graph(f"thick{w}-{w}", thick_cone(w, w))
            inp.op("parity_collapse_hom", None, d=d, mask=mask, src=src, tgt=tgt)
            inp.op("verify_injection_parity", None, d=d, mask=mask, src=src, tgt=tgt)
    for a, b in ((2, 2), (3, 3), (2, 3), (2, 4), (3, 4)):
        left = [f"a{i}" for i in range(a)]
        right = [f"b{j}" for j in range(b)]
        edges = [(x, y, 1) for x in left for y in right]
        src = inp.graph(f"kcone{a}-{b}", multigraph_cone(left + right, edges))
        base = inp.graph(f"k{a}-{b}", plain_multigraph(left + right, edges), facts=False)
        tgt = inp.graph(f"thick{b}-{a}", thick_cone(b, a))
        inp.op("bipartite_collapse_hom", base, left=left, right=right, src=src, tgt=tgt)
        inp.op("verify_injection_bipartite", base, left=left, right=right, src=src, tgt=tgt)
    for d in (2, 3, 4):
        for m in range(1, 1 << d):
            mask = [(m >> i) & 1 for i in range(d)]
            inp.op("stripe_subgroup", inp.graph(f"cube{d}n1", cube_cone(d, 1)), d=d, mask=mask)
    for d in (2, 3):
        for n in (3, 5):
            gid = inp.graph(f"cube{d}n{n}", cube_cone(d, n))
            for m in range(1 << d):
                mask = [(m >> i) & 1 for i in range(d)]
                inp.op("cone_stripe_subgroup", gid, d=d, n=n, mask=mask)
    for gk, hk in ((4, 2), (5, 3), (3, 3)):
        g_labels = [f"v{i + 1}" for i in range(gk)]
        g_edges = [(g_labels[i], g_labels[(i + 1) % gk], 1) for i in range(gk)]
        h_labels = path_labels(hk)
        h_edges = [(h_labels[i], h_labels[i + 1], 1) for i in range(hk - 1)]
        g = inp.graph(f"c{gk}", plain_multigraph(g_labels, g_edges), facts=False)
        h = inp.graph(f"p{hk}", plain_multigraph(h_labels, h_edges), facts=False)
        cg = inp.graph(f"c{gk}-cone", multigraph_cone(g_labels, g_edges))
        ch = inp.graph(f"p{hk}-cone", multigraph_cone(h_labels, h_edges))
        prod_gid = inp.graph(f"c{gk}xp{hk}-cone", product_cone(g_labels, g_edges, h_labels, h_edges))
        for factor, which in (("g", cg), ("h", ch)):
            inp.op("embed_factor", None, g=g, h=h, factor=factor, a=inp.recurrent(which),
                   cone_g=cg, cone_h=ch, product=prod_gid)


WORKLOADS = {"structure": structure, "group_law": group_law,
             "grid_dynamics": grid_dynamics, "orbit": orbit}


def generate(workload: str, seed: int, reach: bool) -> dict:
    inp = Inputs(seed)
    WORKLOADS[workload](inp, reach)
    inp.rng.shuffle(inp.ops)
    return {"graphs": inp.graphs, "ops": inp.ops}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--reach", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    json.dump(generate(args.workload, args.seed, bool(args.reach)), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
