"""Tests of the benchmark itself: its checkers, a smoke run, and the cold-op rule.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import ops as opkinds  # noqa: E402
import run  # noqa: E402


# -- a small hand-made input set covering every op kind -----------------------------


def small_inputs() -> dict:
    inp = inputs.Inputs(seed=3)
    cube = inp.graph("cube3n1", inputs.cube_cone(3, 1))
    inp.graph("cube3n3", inputs.cube_cone(3, 3))
    inp.graph("cube2n1", inputs.cube_cone(2, 1))
    inp.op("structure", cube)
    inp.op("verify_structure", "cube3n3", d=3, k=1)
    inp.op("verify_invariant_factor_count", cube, d=3)
    inp.op("verify_decomposition", inp.graph("cube4n1", inputs.cube_cone(4, 1)), d=4,
           lattice_rank_ok=inputs.decomposition_spans(4))
    inp.op("identity", cube)
    inp.op("representative", cube, x=[5, -7, 0, 3, 12, -1, 2, 9])
    r1, r2 = inp.recurrent(cube), inp.recurrent(cube)
    inp.op("element_order", cube, c=r1)
    inp.op("congruent", cube, x=r1, y=r2)
    inp.op("add", cube, c1=r1, c2=r2)
    grid = inp.graph("grid6", inputs.wired_grid(6), facts=False)
    inp.op("stabilize", grid, pile=[14, 300])
    inp.op("recurrent_sum", grid, c1=inp.grid_recurrent(grid), c2=inp.grid_recurrent(grid))
    inp.op("burning", grid, fill=3)
    inp.op("recurrents", "cube2n1")
    thick = inp.graph("thick3-5", inputs.thick_cone(3, 5))
    inp.op("recurrents", thick)
    inp.op("is_recurrent", thick, c=[3, 5])
    inp.op("representative", thick, x=[-4, 9])
    src = inp.graph("sub2-3", inputs.subcube_cone(2, [1, 1]))
    tgt = inp.graph("thick2-2", inputs.thick_cone(2, 2))
    inp.op("parity_collapse_hom", None, d=2, mask=[1, 1], src=src, tgt=tgt)
    inp.op("verify_injection_parity", None, d=2, mask=[1, 1], src=src, tgt=tgt)
    left, right = ["a0", "a1"], ["b0", "b1", "b2"]
    edges = [(x, y, 1) for x in left for y in right]
    base = inp.graph("k2-3", inputs.plain_multigraph(left + right, edges), facts=False)
    ksrc = inp.graph("kcone2-3", inputs.multigraph_cone(left + right, edges))
    ktgt = inp.graph("thick3-2", inputs.thick_cone(3, 2))
    inp.op("bipartite_collapse_hom", base, left=left, right=right, src=ksrc, tgt=ktgt)
    inp.op("verify_injection_bipartite", base, left=left, right=right, src=ksrc, tgt=ktgt)
    inp.op("stripe_subgroup", cube, d=3, mask=[1, 0, 1])
    inp.op("cone_stripe_subgroup", "cube3n3", d=3, n=3, mask=[1, 1, 0])
    c_labels = ["v1", "v2", "v3", "v4"]
    c_edges = [(c_labels[i], c_labels[(i + 1) % 4], 1) for i in range(4)]
    p_labels = inputs.path_labels(2)
    p_edges = [("p0", "p1", 1)]
    inp.graph("c4", inputs.plain_multigraph(c_labels, c_edges), facts=False)
    inp.graph("p2", inputs.plain_multigraph(p_labels, p_edges), facts=False)
    cg = inp.graph("c4-cone", inputs.multigraph_cone(c_labels, c_edges))
    ch = inp.graph("p2-cone", inputs.multigraph_cone(p_labels, p_edges))
    prod = inp.graph("c4xp2-cone", inputs.product_cone(c_labels, c_edges, p_labels, p_edges))
    inp.op("embed_factor", None, g="c4", h="p2", factor="g", a=inp.recurrent(cg),
           cone_g=cg, cone_h=ch, product=prod)
    return {"graphs": inp.graphs, "ops": inp.ops}


@pytest.fixture(scope="module")
def answered():
    """Each op of small_inputs with its normalized library answer."""
    data = small_inputs()
    lib, built, _ = run.setup(data["graphs"])
    out = []
    for op in data["ops"]:
        lib.dynamics._group_cache.clear()
        kind = opkinds.KINDS[op["op"]]
        out.append((op, kind.normalize(kind.prepare(lib, op, built)())))
    return opkinds.Oracles(data["graphs"]), out


def _bump(values, i=0, by=1):
    values = list(values)
    values[i] += by
    return tuple(values)


# One corruption per op kind: each turns a right answer into a wrong one.
CORRUPT = {
    "structure": lambda o: ((o[0][0] * 2,) + o[0][1:], o[1], o[2]),
    "verify_structure": lambda o: (o[0], o[1][1:], o[2]),
    "verify_invariant_factor_count": lambda o: (o[0], o[1], o[2] + 1),
    "verify_decomposition": lambda o: (not o[0], o[1], o[2]),
    "identity": lambda o: _bump(o, by=-1),
    "representative": lambda o: _bump(o, by=-1),
    "element_order": lambda o: o * 2,
    "congruent": lambda o: not o,
    "add": lambda o: _bump(o, by=-1),
    "stabilize": lambda o: (o[0], _bump(o[1])),
    "recurrent_sum": lambda o: (o[0], o[1], not o[2]),
    "burning": lambda o: not o,
    "recurrents": lambda o: frozenset(sorted(o)[1:]),
    "is_recurrent": lambda o: not o,
    "parity_collapse_hom": lambda o: (o[0], o[1] * 2, o[2], o[3]),
    "verify_injection_parity": lambda o: (o[0], o[1], (o[2] or 1) + 1),
    "bipartite_collapse_hom": lambda o: ("uniform", o[1], o[2], o[3]),
    "verify_injection_bipartite": lambda o: (False, o[1], o[2]),
    "stripe_subgroup": lambda o: (o[0], o[1], o[2], o[3][1:] + o[3][:1]),
    "cone_stripe_subgroup": lambda o: (o[0], o[1], o[2][1:] + o[2][:1], o[3]),
    "embed_factor": lambda o: _bump(o, by=-1),
}


def test_every_kind_is_covered():
    assert set(CORRUPT) == set(opkinds.KINDS)
    assert {op["op"] for op in small_inputs()["ops"]} == set(opkinds.KINDS)


def test_checkers_accept_library_answers(answered):
    oracle, pairs = answered
    for op, out in pairs:
        assert opkinds.KINDS[op["op"]].check(oracle, op, out), op["op"]


def test_checkers_reject_corrupted_answers(answered):
    oracle, pairs = answered
    for op, out in pairs:
        bad = CORRUPT[op["op"]](out)
        assert bad != out, op["op"]
        assert not opkinds.KINDS[op["op"]].check(oracle, op, bad), op["op"]


def test_stabilize_checker_rejects_wrong_stable_config(answered):
    oracle, pairs = answered
    op, (stable, firings) = next((op, out) for op, out in pairs if op["op"] == "stabilize")
    assert not opkinds.KINDS["stabilize"].check(oracle, op, (_bump(stable), firings))


def test_box_checker(answered):
    oracle, pairs = answered
    op = next(op for op, _ in pairs if op["op"] == "embed_factor")
    box_op = {"op": "box_certify", "g": op["args"]["product"], "reach": False,
              "args": {**op["args"], "b": [0, 0]}}
    a = op["args"]["a"]
    box = tuple(a[i] for _ in range(2) for i in range(4))
    verdict = oracle.is_recurrent(box_op["g"], box)
    assert run.check_box(oracle, box_op, (box, verdict))
    assert not run.check_box(oracle, box_op, (box, not verdict))
    assert not run.check_box(oracle, box_op, (_bump(box), verdict))


# -- the cold-op rule ------------------------------------------------------------------


class TaggedCache(dict):
    """A group cache that remembers which op stored each entry and counts the
    lookups that an earlier op's entry answers."""

    def __init__(self):
        super().__init__()
        self.op = 0
        self.owner = {}
        self.stale_hits = 0

    def __setitem__(self, key, value):
        self.owner[key] = self.op
        super().__setitem__(key, value)

    def get(self, key, default=None):
        if key in self and self.owner[key] != self.op:
            self.stale_hits += 1
        return super().get(key, default)


def _tagged_pass(workload: str, clear: bool) -> TaggedCache:
    """Run one pass of a workload with the group cache replaced by a TaggedCache."""
    data = inputs.generate(workload, 5, False)
    lib, built, _ = run.setup(data["graphs"])
    cache = TaggedCache()
    lib.dynamics._group_cache = cache
    if not clear:
        cache.clear = lambda: None
    prepared = []
    for i, op in enumerate(data["ops"]):
        call = opkinds.KINDS[op["op"]].prepare(lib, op, built)

        def tagged(call=call, i=i):
            cache.op = i
            return call()

        prepared.append((op, tagged))
    run.Loop(lib, prepared, budget=30.0, alarm=run.Alarm(), speed=run.Speed()).run_pass()
    return cache


def test_no_op_is_served_from_an_earlier_op():
    assert _tagged_pass("orbit", clear=True).stale_hits == 0


def test_the_cold_check_detects_a_warm_cache():
    assert _tagged_pass("orbit", clear=False).stale_hits > 0


# -- smoke run of the command ------------------------------------------------------------


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run(workload):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                           "7", "--seconds", "0", "--trace", "0"], cwd=ROOT, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "orbit", "--seed",
                           "7", "--seconds", "0", "--trace", "1"], cwd=ROOT, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in bench["per_layer"]}


def test_refuses_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "orbit", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
