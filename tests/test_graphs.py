from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fig_contraction_source, grid_cone, random_connected_multigraph
from oracles import kronecker_sum
import sandpiles.graphs as graphs
from sandpiles.dynamics import is_recurrent_burning, stabilize
from sandpiles.errors import (
    DisconnectedGraph,
    EmptyContractionSet,
    LoopEdge,
    NoGlobalSink,
    NonPositiveMultiplicity,
    UnknownVertex,
)
from sandpiles.graphs import (
    SinkedGraph,
    build_digraph,
    build_multigraph,
    cartesian_product,
    cone,
    contract,
    cycle_graph,
    hypercube,
    hypercube_label,
    k2,
    subcube,
    thick_k2_cone,
    thick_pair,
    to_sink_digraph,
)
from sandpiles.intlinalg import laplacian, reduced_laplacian


class TestBuildMultigraph:
    def test_parallel_edge(self):
        g = build_multigraph(["a", "b"], [("a", "b", 2)])
        assert g.multiplicity("a", "b") == 2
        assert g.degree("a") == g.degree("b") == 2

    def test_triangle(self):
        g = build_multigraph(["a", "b", "c"], [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
        assert all(g.degree(v) == 2 for v in "abc")

    def test_multiplicities_accumulate(self):
        g = build_multigraph(["a", "b"], [("a", "b", 1), ("b", "a", 2)])
        assert g.multiplicity("a", "b") == 3

    def test_loop_rejected(self):
        with pytest.raises(LoopEdge):
            build_multigraph(["a", "b"], [("a", "a", 1)])

    def test_unknown_vertex_rejected(self):
        with pytest.raises(UnknownVertex):
            build_multigraph(["a"], [("a", "b", 1)])

    def test_nonpositive_multiplicity_rejected(self):
        with pytest.raises(NonPositiveMultiplicity):
            build_multigraph(["a", "b"], [("a", "b", 0)])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_handshake_lemma(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    g = random_connected_multigraph(rng, data.draw(st.integers(2, 6)), max_mult=3)
    degree_sum = sum(g.degree(v) for v in g.vertices)
    assert degree_sum == 2 * sum(m for _, _, m in g.edges())


class TestSparseCore:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_product_laplacian_is_kronecker_sum(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        g = random_connected_multigraph(rng, data.draw(st.integers(1, 5)), max_mult=3)
        h = random_connected_multigraph(rng, data.draw(st.integers(1, 5)), max_mult=3)
        assert laplacian(cartesian_product(g, h)) == kronecker_sum(laplacian(g), laplacian(h))

    def test_cube_laplacian_is_iterated_kronecker_sum(self):
        expected = laplacian(hypercube(0))
        for d in range(1, 7):
            expected = kronecker_sum(expected, laplacian(k2()))
            assert laplacian(hypercube(d)) == expected

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_edge_order_does_not_matter(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        labels = [f"w{i}" for i in range(rng.randint(2, 7))]
        pairs = [(u, v, rng.randint(1, 3)) for u in labels for v in labels if u != v]
        edges = rng.sample(pairs, rng.randint(0, len(pairs)))
        shuffled = rng.sample(edges, len(edges))
        for build in (build_multigraph, build_digraph):
            a, b = build(labels, edges), build(labels, shuffled)
            assert a == b and hash(a) == hash(b)
        a, b = build_multigraph(labels, edges), build_multigraph(labels, shuffled)
        assert a.edges() == b.edges()
        a, b = build_digraph(labels, edges), build_digraph(labels, shuffled)
        assert a.arcs() == b.arcs()

    def test_hundred_by_hundred_grid_cone(self):
        start = time.perf_counter()
        g = grid_cone(100)
        assert len(g.graph.edges()) == 29_800
        chips = [2 * (d - 1) for d in g.out_degrees]
        stable, firings = stabilize(g, chips)
        assert all(0 <= x < d for x, d in zip(stable, g.out_degrees))
        adj = g.adjacency()
        for i, x in enumerate(chips):
            inflow = sum(m * firings[j] for j, m in adj[i])
            assert stable[i] == x - g.out_degrees[i] * firings[i] + inflow
        assert is_recurrent_burning(g, stable)[0]
        assert time.perf_counter() - start < 60


class TestCone:
    def test_cone_of_k2_is_triangle(self):
        g = cone(k2())
        assert g.sink == "s"
        assert all(g.graph.degree(v) == 2 for v in g.graph.vertices)

    def test_cone_of_square_is_wheel(self):
        g = cone(hypercube(2))
        assert all(g.graph.degree(v) == 3 for v in g.nonsink_order)
        assert g.graph.degree("s") == 4

    def test_triple_cone_of_edge(self):
        g = cone(hypercube(1), 3)
        for v in g.nonsink_order:
            assert g.graph.multiplicity(v, "s") == 3
        assert g.graph.multiplicity("v0", "v1") == 1

    def test_sink_label_stays_fresh(self):
        g = cone(build_multigraph(["s", "x"], [("s", "x", 1)]))
        assert g.sink == "s1"

    def test_bad_n(self):
        with pytest.raises(NonPositiveMultiplicity):
            cone(k2(), 0)

    def test_cone_runs_no_bfs(self, monkeypatch):
        from sandpiles.cubes import cube_cone

        searches = []
        reach_count = graphs._reach_count
        monkeypatch.setattr(
            graphs, "_reach_count", lambda *args: searches.append(args) or reach_count(*args)
        )
        cones = [cone(cycle_graph(5)), cone(build_multigraph(["a", "b"], []), 2), cube_cone(4, 3)]
        assert searches == []
        assert all(g.connected for g in cones)

    def test_component_away_from_the_sink_is_disconnected(self):
        # "c" has an edge to the sink, "a" and "b" only to each other.
        g = build_multigraph(["s", "a", "b", "c"], [("a", "b", 2), ("s", "c", 1)])
        sinked = SinkedGraph(g, "s")
        assert sinked.sink_mult == (0, 0, 1)
        assert not sinked.connected
        with pytest.raises(NoGlobalSink):
            stabilize(sinked, (0, 3, 0))


# Labels that a cone's sink must avoid: "s" and "s1" force the fresh label
# past its first choices.
_LABELS = ["s", "s1", "a", "b", "c", "d", "e"]


@st.composite
def multigraphs(draw, max_vertices: int = 6):
    """Multigraphs on up to max_vertices labels from _LABELS, in drawn
    order, with edges listed either way round and pairs repeated."""
    labels = draw(st.lists(st.sampled_from(_LABELS), unique=True, max_size=max_vertices))
    if len(labels) < 2:
        return build_multigraph(labels, [])
    edge = st.tuples(st.sampled_from(labels), st.sampled_from(labels), st.integers(1, 3))
    edges = draw(st.lists(edge.filter(lambda e: e[0] != e[1]), max_size=12))
    return build_multigraph(labels, edges)


def _rows(g) -> list[list[tuple[int, int]]]:
    return [list(g.row(i)) for i in range(g.n)]


def _same_graph(a, b) -> bool:
    """Equal, with equal hashes, labels and index rows in the same order."""
    return a == b and hash(a) == hash(b) and a.vertices == b.vertices and _rows(a) == _rows(b)


class TestIndexBuiltConstructors:
    """cone, subcube, hypercube and cartesian_product build their rows from
    the rows of graphs already built; each equals the graph its labelled
    edge list builds."""

    @given(multigraphs(), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_cone_equals_its_labelled_build(self, g, n):
        sink = next(x for x in ["s"] + [f"s{k}" for k in range(1, 9)] if x not in g.vertices)
        edges = g.edges() + [(v, sink, n) for v in g.vertices]
        expected = SinkedGraph(build_multigraph(g.vertices + (sink,), edges), sink)
        got = cone(g, n)
        assert got.sink == sink
        assert _same_graph(got.graph, expected.graph)
        assert got == expected and hash(got) == hash(expected)
        assert got.nonsink_order == expected.nonsink_order == g.vertices
        assert got.adjacency() == expected.adjacency()
        assert got.out_degrees == expected.out_degrees
        assert got.sink_mult == expected.sink_mult == (n,) * g.n
        assert got.connected and expected.connected

    @given(multigraphs(4), multigraphs(4))
    @settings(max_examples=150, deadline=None)
    def test_cartesian_product_equals_its_labelled_build(self, g, h):
        def label(u, v):
            return f"({u},{v})"

        vertices = [label(u, v) for v in h.vertices for u in g.vertices]
        edges = [(label(u1, v), label(u2, v), m) for v in h.vertices for u1, u2, m in g.edges()]
        edges += [(label(u, v1), label(u, v2), m) for v1, v2, m in h.edges() for u in g.vertices]
        assert _same_graph(cartesian_product(g, h), build_multigraph(vertices, edges))

    @pytest.mark.parametrize("d", range(6))
    def test_subcubes_equal_their_labelled_builds(self, d):
        for m in range(1 << d):
            mask = tuple(m >> i & 1 for i in range(d))
            labels = {x: hypercube_label(x, d) for x in range(1 << d) if x & ~m == 0}
            edges = [(labels[x], labels[x | 1 << i], 1)
                     for x in labels for i in range(d) if (m & ~x) >> i & 1]
            assert _same_graph(subcube(d, mask), build_multigraph(labels.values(), edges))
        assert _same_graph(hypercube(d), subcube(d, (1,) * d))

    @given(multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_sinked_graph_rows_at_every_sink(self, g):
        # The adjacency shifts indices past the sink down by one.
        for sink in g.vertices:
            sg = SinkedGraph(g, sink)
            order = [v for v in g.vertices if v != sink]
            assert sg.nonsink_order == tuple(order)
            for i, v in enumerate(order):
                assert sg.adjacency()[i] == tuple(
                    (order.index(u), g.multiplicity(v, u)) for u in order if g.multiplicity(v, u)
                )
                assert sg.sink_mult[i] == g.multiplicity(v, sink)
                assert sg.out_degrees[i] == g.degree(v)


class TestCartesianProduct:
    def test_square_from_two_edges(self):
        p = cartesian_product(k2(), k2())
        assert p.n == 4
        assert sum(m for _, _, m in p.edges()) == 4
        assert all(p.degree(v) == 2 for v in p.vertices)

    def test_prism(self):
        p = cartesian_product(cycle_graph(5), k2())
        assert p.n == 10
        assert sum(m for _, _, m in p.edges()) == 15
        assert all(p.degree(v) == 3 for v in p.vertices)

    def test_one_vertex_factor_is_identity(self):
        g = cycle_graph(4)
        single = build_multigraph(["pt"], [])
        p = cartesian_product(g, single)
        for u in g.vertices:
            for v in g.vertices:
                assert p.multiplicity(f"({u},pt)", f"({v},pt)") == g.multiplicity(u, v)

    def test_first_factor_varies_fastest(self):
        p = cartesian_product(k2(), cycle_graph(3))
        assert p.vertices[:4] == ("(v1,v1)", "(v2,v1)", "(v1,v2)", "(v2,v2)")

    def test_commutative_up_to_relabeling(self):
        g, h = cycle_graph(3), k2()
        gh = cartesian_product(g, h)
        hg = cartesian_product(h, g)
        for i, u in enumerate(g.vertices):
            for j, v in enumerate(h.vertices):
                for i2, u2 in enumerate(g.vertices):
                    for j2, v2 in enumerate(h.vertices):
                        assert gh.multiplicity(
                            f"({u},{v})", f"({u2},{v2})"
                        ) == hg.multiplicity(f"({v},{u})", f"({v2},{u2})")

    def test_associative_up_to_relabeling(self):
        a, b, c = k2(), cycle_graph(3), k2()
        left = cartesian_product(cartesian_product(a, b), c)
        right = cartesian_product(a, cartesian_product(b, c))

        def left_label(u, v, w):
            return f"(({u},{v}),{w})"

        def right_label(u, v, w):
            return f"({u},({v},{w}))"

        triples = [(u, v, w) for u in a.vertices for v in b.vertices for w in c.vertices]
        for t1 in triples:
            for t2 in triples:
                assert left.multiplicity(left_label(*t1), left_label(*t2)) == \
                    right.multiplicity(right_label(*t1), right_label(*t2))


class TestHypercube:
    def test_dimension_zero(self):
        g = hypercube(0)
        assert g.n == 1 and not g.edges()

    def test_dimension_two_is_square(self):
        g = hypercube(2)
        assert g.vertices == ("v00", "v10", "v01", "v11")
        assert all(g.degree(v) == 2 for v in g.vertices)

    def test_dimension_three_counts(self):
        g = hypercube(3)
        assert g.n == 8
        assert sum(m for _, _, m in g.edges()) == 12
        assert all(g.degree(v) == 3 for v in g.vertices)

    def test_equals_iterated_product_up_to_relabeling(self):
        q3 = hypercube(3)
        folded = cartesian_product(cartesian_product(k2(), k2()), k2())
        # v1 plays bit 0, v2 plays bit 1, first factor fastest on both sides
        bit = {"v1": "0", "v2": "1"}

        def fold_label(label):
            inner, last = label[1:-1].rsplit(",", 1)
            a, b = inner[1:-1].split(",")
            return "v" + bit[a] + bit[b] + bit[last]

        for x in folded.vertices:
            for y in folded.vertices:
                assert folded.multiplicity(x, y) == q3.multiplicity(
                    fold_label(x), fold_label(y)
                )


class TestSubcube:
    def test_masked_square_inside_cube(self):
        g = subcube(3, (1, 0, 1))
        assert g.vertices == ("v000", "v100", "v001", "v101")
        assert all(g.degree(v) == 2 for v in g.vertices)

    def test_zero_mask(self):
        g = subcube(3, (0, 0, 0))
        assert g.vertices == ("v000",) and not g.edges()

    def test_full_mask_is_whole_cube(self):
        assert subcube(3, (1, 1, 1)) == hypercube(3)

    def test_isomorphic_to_smaller_cube_by_dropping_coordinates(self):
        mask = (1, 0, 1, 0)
        g = subcube(4, mask)
        small = hypercube(2)
        positions = [i for i, b in enumerate(mask) if b]

        def compress(label):
            bits = label[1:]
            return "v" + "".join(bits[i] for i in positions)

        for x in g.vertices:
            for y in g.vertices:
                assert g.multiplicity(x, y) == small.multiplicity(compress(x), compress(y))


class TestThickK2Cone:
    def test_unit_case_is_triangle(self):
        g = thick_k2_cone(1, 1)
        assert not g.directed
        assert all(g.graph.degree(v) == 2 for v in g.graph.vertices)

    def test_equal_case_is_undirected(self):
        g = thick_k2_cone(2, 2)
        assert not g.directed
        assert g.graph.multiplicity("v1", "v2") == 2

    def test_unequal_case_is_digraph(self):
        g = thick_k2_cone(2, 3)
        assert g.directed
        assert reduced_laplacian(g).entries == ((3, -2), (-3, 4))


class TestSinkDigraph:
    def test_triangle(self):
        g = to_sink_digraph(cone(k2()).graph, "s")
        assert g.directed
        dg = g.graph
        assert dg.arc_multiplicity("v1", "v2") == 1
        assert dg.arc_multiplicity("v2", "v1") == 1
        assert dg.arc_multiplicity("v1", "s") == 1
        assert dg.arc_multiplicity("s", "v1") == 0

    def test_undirected_arcs_are_those_of_the_sink_digraph(self):
        # An undirected sinked graph answers arc queries without building
        # its sink digraph; sink edges point into the sink only.
        g = cone(k2())
        dg = to_sink_digraph(g.graph, g.sink).graph
        for u in g.graph.vertices:
            for v in g.graph.vertices:
                assert g.arc_multiplicity(u, v) == dg.arc_multiplicity(u, v)
        assert g.graph.multiplicity("s", "v1") == 1
        assert g.arc_multiplicity("s", "v1") == 0

    def test_reduced_laplacian_matches_undirected(self):
        base = cone(hypercube(1))
        direct = to_sink_digraph(base.graph, base.sink)
        assert reduced_laplacian(direct).entries == ((2, -1), (-1, 2))
        assert reduced_laplacian(direct) == reduced_laplacian(base)

    def test_sink_out_degree_zero(self):
        g = to_sink_digraph(cone(cycle_graph(4)).graph, "s")
        assert g.graph.out_degree("s") == 0

    def test_cone_out_degrees(self):
        base = cycle_graph(4)
        coned = cone(base, 2)
        dg = to_sink_digraph(coned.graph, coned.sink)
        for v in base.vertices:
            assert dg.graph.out_degree(v) == base.degree(v) + 2

    def test_disconnected_rejected(self):
        g = build_multigraph(["a", "b", "c"], [("a", "b", 1)])
        with pytest.raises(DisconnectedGraph):
            to_sink_digraph(g, "a")

    def test_global_sink_validation(self):
        dg = build_digraph(["a", "b", "s"], [("a", "b", 1), ("b", "a", 1), ("a", "s", 1)])
        SinkedGraph(dg, "s")  # fine: b reaches s through a
        lonely = build_digraph(["a", "b", "s"], [("a", "s", 1), ("b", "a", 1), ("a", "b", 1), ("s", "b", 1)])
        with pytest.raises(NoGlobalSink):
            SinkedGraph(lonely, "s")


class TestContract:
    def test_pendant_pair_accumulates(self):
        g = fig_contraction_source()
        merged = contract(g, {"u1", "u1p"}, new_label="sG")
        assert merged.multiplicity("sG", "u2") == 1
        assert merged.multiplicity("sG", "u3") == 2
        assert merged.multiplicity("sG", "u4") == 1
        assert merged.multiplicity("sG", "u5") == 2
        assert merged.multiplicity("u2", "u3") == 1

    def test_single_vertex_is_isomorphic(self):
        g = cycle_graph(4)
        assert contract(g, {"v2"}) == g

    def test_contract_everything(self):
        g = cycle_graph(4)
        merged = contract(g, set(g.vertices), new_label="x")
        assert merged.vertices == ("x",) and not merged.edges()

    def test_outside_multiplicities_preserved(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_connected_multigraph(rng, 6, max_mult=3)
            group = set(rng.sample(g.vertices, rng.randint(1, 3)))
            merged = contract(g, group, new_label="merged")
            outside = [v for v in g.vertices if v not in group]
            for v in outside:
                assert merged.multiplicity("merged", v) == sum(
                    g.multiplicity(u, v) for u in group
                )
                for w in outside:
                    if v != w:
                        assert merged.multiplicity(v, w) == g.multiplicity(v, w)

    def test_empty_set_rejected(self):
        with pytest.raises(EmptyContractionSet):
            contract(cycle_graph(3), set())


def test_hypercube_labels():
    assert hypercube_label(0, 3) == "v000"
    assert hypercube_label(1, 3) == "v100"
    assert hypercube_label(6, 3) == "v011"


def test_thick_pair_requires_positive_multiplicity():
    with pytest.raises(NonPositiveMultiplicity):
        thick_pair(0)


@pytest.mark.parametrize("make, error, message", [
    (lambda: build_multigraph(["a", "a"], []), UnknownVertex, "duplicate vertex labels"),
    (lambda: hypercube(-1), ValueError, "dimension must be nonnegative"),
    (lambda: subcube(2, (1, 2)), ValueError, "mask must be a 0/1 tuple"),
    (lambda: subcube(3, (1, 0)), ValueError, "mask length 2 != 3"),
    (lambda: thick_k2_cone(0, 2), NonPositiveMultiplicity, "need r, t >= 1"),
    (lambda: thick_k2_cone(2, 0), NonPositiveMultiplicity, "need r, t >= 1"),
    (lambda: contract(cycle_graph(3), {"v1", "x"}), UnknownVertex, "^x$"),
    (lambda: cycle_graph(2), ValueError, "at least 3 vertices"),
    (lambda: cone(build_digraph(["a", "b"], [("a", "b", 1)])), TypeError,
     "cone needs a Multigraph"),
    (lambda: cartesian_product(k2(), cone(k2())), TypeError,
     "cartesian_product needs Multigraphs"),
    # ("a,b", "c") and ("a", "b,c") would both be labelled "(a,b,c)".
    (lambda: cartesian_product(build_multigraph(["a,b", "a"], []),
                               build_multigraph(["c", "b,c"], [])),
     UnknownVertex, "duplicate vertex labels"),
], ids=["duplicate-labels", "negative-dimension", "mask-not-binary", "mask-length",
        "thick-r", "thick-t", "contract-unknown", "short-cycle", "cone-of-digraph",
        "product-of-sinked", "product-label-collision"])
def test_constructors_refuse_bad_arguments(make, error, message):
    with pytest.raises(error, match=message):
        make()
