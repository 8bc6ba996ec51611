"""Benchmark ops: how each op calls the library, and how its output is checked.

An op kind has three parts.  `prepare` turns the op's JSON inputs into library
objects, outside the timed region, and returns the zero-argument call that is
timed.  `normalize` turns the library's answer into plain data.  `check`
compares that data with an answer reached by another route (oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd, prod
from typing import Any, Callable

import oracles


# -- building the library's graphs through its public constructors -----------------------


def build_graph(lib, entry: dict):
    b, spec = entry["build"], entry["spec"]
    ctor = b["ctor"]
    if ctor == "cube_cone":
        return lib.cubes.cube_cone(b["d"], b["n"])
    if ctor == "subcube_cone":
        return lib.sp.cone(lib.sp.subcube(b["d"], b["mask"]), 1)
    if ctor == "thick":
        return lib.sp.thick_k2_cone(b["r"], b["t"])
    if ctor == "cycle_cone":
        return lib.sp.cone(lib.sp.cycle_graph(b["k"]), 1)
    if ctor == "grid_cone":
        labels = [f"p{i}" for i in range(b["k"])]
        path = lib.sp.build_multigraph(labels, [(labels[i], labels[i + 1], 1)
                                                for i in range(b["k"] - 1)])
        return lib.sp.cone(lib.sp.cartesian_product(path, path), 1)
    sink = spec["sink"]
    if ctor == "cone":
        labels = [v for v in spec["vertices"] if v != sink]
        edges = [tuple(e) for e in spec["edges"] if sink not in e[:2]]
        return lib.sp.cone(lib.sp.build_multigraph(labels, edges), b["n"])
    if ctor == "sinked":
        return lib.sp.SinkedGraph(
            lib.sp.build_multigraph(spec["vertices"], [tuple(e) for e in spec["edges"]]), sink)
    if ctor == "multigraph":
        return lib.sp.build_multigraph(spec["vertices"], [tuple(e) for e in spec["edges"]])
    raise ValueError(f"unknown constructor {ctor!r}")


def same_vertex_order(graph, spec: dict) -> bool:
    if spec["sink"] is None:
        return list(graph.vertices) == spec["vertices"]
    return list(graph.nonsink_order) == [v for v in spec["vertices"] if v != spec["sink"]]


# -- check context: oracle objects per graph, built once per run -------------------------


class Oracles:
    def __init__(self, graphs: dict):
        self.entries = graphs
        self._spec: dict[str, oracles.SpecGraph] = {}
        self._lattice: dict[str, oracles.RationalLattice] = {}
        self._recurrents: dict[str, set] = {}

    def spec(self, gid: str) -> oracles.SpecGraph:
        if gid not in self._spec:
            self._spec[gid] = oracles.SpecGraph(self.entries[gid]["spec"])
        return self._spec[gid]

    def lattice(self, gid: str) -> oracles.RationalLattice:
        if gid not in self._lattice:
            self._lattice[gid] = oracles.RationalLattice(self.spec(gid))
        return self._lattice[gid]

    def facts(self, gid: str) -> dict:
        return self.entries[gid]["facts"]

    def recurrent_set(self, gid: str) -> set:
        if gid not in self._recurrents:
            self._recurrents[gid] = self.spec(gid).recurrent_set(10**6)
        return self._recurrents[gid]

    def is_recurrent(self, gid: str, c) -> bool:
        g = self.spec(gid)
        if g.directed:
            return tuple(c) in self.recurrent_set(gid)
        return g.is_recurrent(c)

    def identity(self, gid: str) -> list[int]:
        """The recurrent class of 0, by firing the sink until recurrent."""
        g = self.spec(gid)
        c = [0] * g.n
        while True:
            c, _ = g.stabilize(c)
            if g.is_recurrent(c):
                return c
            c = [x + b for x, b in zip(c, g.to_sink)]


# -- op kinds ------------------------------------------------------------------------


@dataclass(frozen=True)
class Kind:
    prepare: Callable[[Any, dict, dict], Callable[[], Any]]
    normalize: Callable[[Any], Any]
    check: Callable[[Oracles, dict, Any], bool]


def _vector(op: dict, n: int) -> list[int]:
    """The op's configuration: given outright, one value everywhere, or a pile."""
    a = op["args"]
    if "c" in a:
        return list(a["c"])
    if "fill" in a:
        return [a["fill"]] * n
    index, chips = a["pile"]
    c = [0] * n
    c[index] = chips
    return c


def _structure_tuple(s) -> tuple:
    return tuple(s.invariant_factors), tuple(s.elementary_divisors), int(s.order)


def _formula_elementary(entry: dict) -> list[int] | None:
    """Elementary divisors of the odd cube-cone formula: cyclic orders 2i+n with
    multiplicity C(d, i), when the cone multiplicity n is odd."""
    b = entry["build"]
    if b["ctor"] != "cube_cone" or b["n"] % 2 == 0:
        return None
    return oracles.elementary_divisors(
        [2 * i + b["n"] for i in range(b["d"] + 1) for _ in range(comb(b["d"], i))])


def check_structure(o: Oracles, op: dict, out) -> bool:
    inv, elem, order = out
    if not oracles.check_structure(inv, elem, order, o.facts(op["g"])):
        return False
    formula = _formula_elementary(o.entries[op["g"]])
    return formula is None or list(elem) == formula


def check_verify_structure(o: Oracles, op: dict, out) -> bool:
    passed, computed, expected = out
    formula = _formula_elementary(o.entries[op["g"]])
    facts = o.facts(op["g"])
    ranks_ok = all(sum(1 for q in computed if q % p == 0) == r for p, _, r in facts["primes"])
    return (list(expected) == formula and ranks_ok and prod(computed) == abs(facts["det"])
            and passed == (list(computed) == list(expected)))


def _closed_form_if_count(d: int) -> int:
    return 6 if d == 4 else sum(comb(d, 1 + 3 * i) for i in range((d - 1) // 3 + 1))


def check_if_count(o: Oracles, op: dict, out) -> bool:
    passed, closed, computed = out
    count = max((r for _, _, r in o.facts(op["g"])["primes"]), default=0)
    d = op["args"]["d"]
    return computed == count and closed == _closed_form_if_count(d) and passed == (closed == count)


def check_decomposition(o: Oracles, op: dict, out) -> bool:
    passed, diag, element_level = out
    d = op["args"]["d"]
    lattice_ok = len(diag) == 1 << d and all(x == 1 for x in diag)
    return (not element_level and lattice_ok == op["args"]["lattice_rank_ok"]
            and passed == lattice_ok)


def check_recurrent_class(o: Oracles, op: dict, values, x) -> bool:
    """values is recurrent and congruent to x."""
    gid = op["g"]
    return o.is_recurrent(gid, values) and o.lattice(gid).congruent(values, x)


def check_stabilize(o: Oracles, gid: str, c, out) -> bool:
    stable, firings = out
    g = o.spec(gid)
    return (len(stable) == g.n and all(x < d for x, d in zip(stable, g.out))
            and (min(c) < 0 or min(stable) >= 0) and min(firings) >= 0
            and g.minus_lt_times(c, firings) == list(stable))


def _hom_tuple(h) -> tuple:
    return h.kind, h.degree, h.surjective, dict(h.vertex_map.mapping)


def check_hom(o: Oracles, op: dict, out, kind: str, degree: int | None) -> bool:
    got_kind, got_degree, surjective, mapping = out
    a = op["args"]
    src, tgt = o.entries[a["src"]]["spec"], o.entries[a["tgt"]]["spec"]
    clauses_ok, bench_degree = oracles.check_uniform_hom(src, tgt, mapping, ["v1", "v2"], kind)
    return (clauses_ok and got_kind == kind and surjective
            and got_degree == bench_degree == degree)


def check_injection(o: Oracles, op: dict, out) -> bool:
    """An injection's image has the target group's order; the sampled mode,
    used above the enumeration bound, reports no order."""
    passed, mode, image_order = out
    if mode == "sampled":
        return passed and image_order is None
    return passed and mode in ("enumerated", "lattice") and image_order == abs(
        o.facts(op["args"]["tgt"])["det"])


def _bipartite_kind(op: dict) -> str:
    return "uniform" if len(op["args"]["left"]) == len(op["args"]["right"]) else "directed"


def check_stripes(o: Oracles, op: dict, out) -> bool:
    order, expected, generator, elements = out
    gid = op["g"]
    w = sum(op["args"]["mask"])
    lattice = o.lattice(gid)
    return (expected == 2 * w + 1 and order == len(elements) == expected
            and len(set(elements)) == len(elements)
            and all(o.is_recurrent(gid, e) for e in elements)
            and all(lattice.congruent(e, [(i + 1) * x for x in generator])
                    for i, e in enumerate(elements))
            and lattice.contains(elements[-1]))


def check_cone_stripes(o: Oracles, op: dict, out) -> bool:
    order, expected, elements, patterns = out
    gid = op["g"]
    n, w = op["args"]["n"], sum(op["args"]["mask"])
    lattice = o.lattice(gid)
    return (expected == (2 * w + n if w else n) and order == len(elements) == len(patterns)
            and (gcd(n, w) != 1 or order == expected)
            and len(set(elements)) == len(elements)
            and all(o.is_recurrent(gid, e) for e in elements)
            and all(lattice.congruent(e, p) for e, p in zip(elements, patterns)))


def check_embed(o: Oracles, op: dict, out) -> bool:
    a = op["args"]
    other = o.identity(a["cone_h"] if a["factor"] == "g" else a["cone_g"])
    gn = o.spec(a["cone_g"]).n
    hn = o.spec(a["cone_h"]).n
    g_vals, h_vals = (a["a"], other) if a["factor"] == "g" else (other, a["a"])
    box = tuple(g_vals[i] + h_vals[j] for j in range(hn) for i in range(gn))
    return tuple(out) == box and o.is_recurrent(a["product"], out)


def _recurrent_config(lib, graph, values):
    return lib.dynamics.RecurrentConfig(graph, tuple(values), "input")


def _parity_hom(lib, op):
    return lambda: lib.cubes.parity_collapse_hom(op["args"]["d"], op["args"]["mask"])


def _bipartite_hom(lib, op, built):
    a = op["args"]
    return lambda: lib.morphisms.bipartite_collapse_hom(built[op["g"]], (a["left"], a["right"]))


def _recurrent_sum(lib, g, c1, c2):
    stable, firings = lib.sp.stabilize(g, [a + b for a, b in zip(c1, c2)])
    return stable, firings, lib.sp.is_recurrent_burning(g, stable)[0]


def _injection_tuple(r) -> tuple:
    return r.passed, r.mode, r.image_order


KINDS: dict[str, Kind] = {
    "structure": Kind(
        lambda lib, op, built: (lambda g=built[op["g"]]: lib.sp.SandpileGroup(g).structure),
        _structure_tuple, check_structure),
    "verify_structure": Kind(
        lambda lib, op, built: (lambda a=op["args"]: lib.cubes.verify_structure(a["d"], a["k"])),
        lambda r: (r.passed, tuple(r.computed), tuple(r.expected)), check_verify_structure),
    "verify_invariant_factor_count": Kind(
        lambda lib, op, built: (lambda d=op["args"]["d"]:
                                lib.cubes.verify_invariant_factor_count(d)),
        lambda r: (r.passed, r.closed_form, r.computed), check_if_count),
    "verify_decomposition": Kind(
        lambda lib, op, built: (lambda d=op["args"]["d"]: lib.cubes.verify_decomposition(d)),
        lambda r: (r.passed, tuple(r.lattice_diagonal), r.element_level), check_decomposition),
    "identity": Kind(
        lambda lib, op, built: (lambda g=built[op["g"]]: lib.sp.identity(g)),
        lambda rc: tuple(rc.values),
        lambda o, op, out: check_recurrent_class(o, op, out, [0] * len(out))),
    "representative": Kind(
        lambda lib, op, built: (lambda g=built[op["g"]], x=tuple(op["args"]["x"]):
                                lib.sp.recurrent_representative(g, x)),
        lambda rc: tuple(rc.values),
        lambda o, op, out: check_recurrent_class(o, op, out, op["args"]["x"])),
    "element_order": Kind(
        lambda lib, op, built: (lambda c=_recurrent_config(lib, built[op["g"]], op["args"]["c"]):
                                lib.sp.element_order(c)),
        int,
        lambda o, op, k: oracles.check_element_order(
            o.lattice(op["g"]), op["args"]["c"], k, o.facts(op["g"])["det"])),
    "congruent": Kind(
        lambda lib, op, built: (lambda g=built[op["g"]], a=op["args"]:
                                lib.sp.congruent(g, a["x"], a["y"])),
        bool,
        lambda o, op, out: out == o.lattice(op["g"]).congruent(op["args"]["x"], op["args"]["y"])),
    "add": Kind(
        lambda lib, op, built: (
            lambda c1=_recurrent_config(lib, built[op["g"]], op["args"]["c1"]),
            c2=_recurrent_config(lib, built[op["g"]], op["args"]["c2"]):
            lib.sp.add_recurrent(c1, c2)),
        lambda rc: tuple(rc.values),
        lambda o, op, out: check_recurrent_class(
            o, op, out, [a + b for a, b in zip(op["args"]["c1"], op["args"]["c2"])])),
    "stabilize": Kind(
        lambda lib, op, built: (lambda g=built[op["g"]], c=_vector(op, built[op["g"]].n_nonsink):
                                lib.sp.stabilize(g, c)),
        lambda r: (tuple(r[0]), tuple(r[1])),
        lambda o, op, out: check_stabilize(o, op["g"], _vector(op, o.spec(op["g"]).n), out)),
    "recurrent_sum": Kind(
        lambda lib, op, built: (lambda g=built[op["g"]], a=op["args"]:
                                _recurrent_sum(lib, g, a["c1"], a["c2"])),
        lambda r: (tuple(r[0]), tuple(r[1]), bool(r[2])),
        lambda o, op, out: check_stabilize(
            o, op["g"], [a + b for a, b in zip(op["args"]["c1"], op["args"]["c2"])], out[:2])
        and out[2] == o.is_recurrent(op["g"], out[0])),
    "burning": Kind(
        lambda lib, op, built: (lambda g=built[op["g"]], c=_vector(op, built[op["g"]].n_nonsink):
                                lib.sp.is_recurrent_burning(g, c)),
        lambda r: bool(r[0]),
        lambda o, op, out: out == o.is_recurrent(op["g"], _vector(op, o.spec(op["g"]).n))),
    "recurrents": Kind(
        lambda lib, op, built: (lambda g=built[op["g"]]: lib.sp.SandpileGroup(g).recurrents()),
        lambda r: frozenset(r),
        lambda o, op, out: (
            o.spec(op["g"]).is_closed_recurrent_set(set(out), o.facts(op["g"])["det"])
            if o.spec(op["g"]).directed else
            len(out) == abs(o.facts(op["g"])["det"])
            and all(o.is_recurrent(op["g"], c) for c in out))),
    "is_recurrent": Kind(
        lambda lib, op, built: (lambda g=built[op["g"]], c=tuple(op["args"]["c"]):
                                lib.sp.SandpileGroup(g).is_recurrent(c)),
        bool,
        lambda o, op, out: out == o.is_recurrent(op["g"], op["args"]["c"])),
    "parity_collapse_hom": Kind(
        lambda lib, op, built: _parity_hom(lib, op),
        _hom_tuple,
        lambda o, op, out: check_hom(o, op, out, "uniform",
                                     1 << max(sum(op["args"]["mask"]) - 1, 0))),
    "verify_injection_parity": Kind(
        lambda lib, op, built: (lambda h=_parity_hom(lib, op)():
                                lib.morphisms.verify_group_injection(h)),
        _injection_tuple, check_injection),
    "bipartite_collapse_hom": Kind(
        _bipartite_hom,
        _hom_tuple,
        lambda o, op, out: check_hom(
            o, op, out, _bipartite_kind(op),
            len(op["args"]["left"]) if _bipartite_kind(op) == "uniform" else None)),
    "verify_injection_bipartite": Kind(
        lambda lib, op, built: (lambda h=_bipartite_hom(lib, op, built)():
                                lib.morphisms.verify_group_injection(h)),
        _injection_tuple, check_injection),
    "stripe_subgroup": Kind(
        lambda lib, op, built: (lambda a=op["args"]: lib.cubes.stripe_subgroup(a["d"], a["mask"])),
        lambda s: (s.order, s.expected_order, tuple(s.generator), tuple(s.elements)),
        check_stripes),
    "cone_stripe_subgroup": Kind(
        lambda lib, op, built: (lambda a=op["args"]:
                                lib.cubes.cone_stripe_subgroup(a["d"], a["n"], a["mask"])),
        lambda s: (s.order, s.expected_order, tuple(s.elements), tuple(s.patterns)),
        check_cone_stripes),
    "embed_factor": Kind(
        lambda lib, op, built: (
            lambda a=op["args"]: lib.products.embed_factor(
                lib.products.BoxContext(built[a["g"]], built[a["h"]], 1), tuple(a["a"]),
                a["factor"])),
        lambda rc: tuple(rc.values),
        check_embed),
}
