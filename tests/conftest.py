from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from sandpiles.errors import NoGlobalSink
from sandpiles.graphs import (
    Multigraph,
    SinkedGraph,
    build_digraph,
    build_multigraph,
    cartesian_product,
    cone,
    cycle_graph,
    k2,
)


@pytest.fixture
def c_k2() -> SinkedGraph:
    return cone(k2())


@pytest.fixture
def c_c5() -> SinkedGraph:
    return cone(cycle_graph(5))


def fig_contraction_source() -> Multigraph:
    """Square u2-u3-u4-u5 with two pendant-ish vertices u1, u1p attached by
    multiplicities (1 to one neighbor, 2 to the opposite one)."""
    return build_multigraph(
        ["u1", "u1p", "u2", "u3", "u4", "u5"],
        [
            ("u2", "u3", 1),
            ("u3", "u4", 1),
            ("u4", "u5", 1),
            ("u5", "u2", 1),
            ("u1", "u2", 1),
            ("u1", "u3", 2),
            ("u1p", "u4", 1),
            ("u1p", "u5", 2),
        ],
    )


def contracted_square() -> SinkedGraph:
    """The contraction of fig_contraction_source over {u1, u1p}: a square with
    sink multiplicities (1, 2, 1, 2).  Its group is Z2 + Z48."""
    return SinkedGraph(
        build_multigraph(
            ["sG", "u2", "u3", "u4", "u5"],
            [
                ("u2", "u3", 1),
                ("u3", "u4", 1),
                ("u4", "u5", 1),
                ("u5", "u2", 1),
                ("sG", "u2", 1),
                ("sG", "u3", 2),
                ("sG", "u4", 1),
                ("sG", "u5", 2),
            ],
        ),
        "sG",
    )


def thick_triangle_target() -> SinkedGraph:
    """Three vertices: sink joined to v2 once and v3 twice, v2-v3 doubled.
    Its group is Z8 with identity (1, 2)."""
    return SinkedGraph(
        build_multigraph(
            ["sH", "v2", "v3"],
            [("sH", "v2", 1), ("sH", "v3", 2), ("v2", "v3", 2)],
        ),
        "sH",
    )


def random_connected_multigraph(
    rng: random.Random, n_vertices: int, max_mult: int = 2
) -> Multigraph:
    labels = [f"w{i}" for i in range(n_vertices)]
    while True:
        edges = []
        for u, v in itertools.combinations(labels, 2):
            m = rng.randint(0, max_mult)
            if m:
                edges.append((u, v, m))
        if not edges and n_vertices > 1:
            continue
        g = build_multigraph(labels, edges)
        if g.is_connected():
            return g


def random_sinked_graph(rng: random.Random, n_vertices: int, max_mult: int = 2) -> SinkedGraph:
    g = random_connected_multigraph(rng, n_vertices, max_mult)
    return SinkedGraph(g, rng.choice(g.vertices))


def random_sinked_digraph(rng: random.Random, n_nonsink: int, max_mult: int = 2) -> SinkedGraph:
    """Random arcs of multiplicity 0..max_mult between non-sink vertices and
    into the sink "s", redrawn until "s" is a global sink."""
    labels = [f"w{i}" for i in range(n_nonsink)]
    while True:
        arcs = [
            (u, v, m)
            for u in labels
            for v in labels + ["s"]
            if u != v and (m := rng.randint(0, max_mult))
        ]
        try:
            return SinkedGraph(build_digraph(labels + ["s"], arcs), "s")
        except NoGlobalSink:
            continue


def grid_cone(k: int) -> SinkedGraph:
    """Cone of the k x k grid graph."""
    labels = [f"p{i}" for i in range(k)]
    path = build_multigraph(labels, [(labels[i], labels[i + 1], 1) for i in range(k - 1)])
    return cone(cartesian_product(path, path))


def wired_grid(k: int) -> SinkedGraph:
    """k x k grid whose boundary is wired to the sink "s", so every vertex has
    degree 4."""
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
                edges.append((f"r{i}c{j}", "s", wires))
    return SinkedGraph(build_multigraph(labels + ["s"], edges), "s")
