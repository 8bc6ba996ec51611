from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import contracted_square, random_connected_multigraph, thick_triangle_target
from oracles import (
    all_masks,
    hom_clauses_by_pairs,
    image_order_by_enumeration,
    image_order_by_smith_form,
)
import sandpiles.morphisms as morphisms
from sandpiles.cubes import parity_collapse_hom
from sandpiles.dynamics import RecurrentConfig, sandpile_group, stabilize
from sandpiles.errors import (
    ClauseViolation,
    NotBiregular,
    NotSurjective,
    NotUndirected,
    PreconditionViolated,
    UnknownVertex,
)
from sandpiles.graphs import (
    Multigraph,
    SinkedGraph,
    build_digraph,
    build_multigraph,
    cartesian_product,
    cone,
    cycle_graph,
    hypercube,
    k2,
    thick_k2_cone,
)
import sandpiles.intlinalg as intlinalg
from sandpiles.intlinalg import reduced_laplacian
from sandpiles.morphisms import (
    HOM_KINDS,
    UniformHom,
    VertexMap,
    bipartite_collapse_hom,
    induced_map,
    pullback,
    validate_hom,
    verify_group_injection,
)


def contraction_hom() -> UniformHom:
    src = contracted_square()
    tgt = thick_triangle_target()
    vmap = VertexMap(
        src, tgt, {"sG": "sH", "u2": "v2", "u3": "v3", "u4": "v2", "u5": "v3"}
    )
    return validate_hom(vmap, ["v2", "v3"], "uniform", require_surjective=True)


def blowup_hom(rng: random.Random, h_vertices: int = 3, degree: int = 2):
    """Random valid surjective uniform hom built fiber-by-fiber: every target
    edge of multiplicity m becomes m random perfect matchings between fibers,
    every sink edge fans out across its fiber."""
    while True:
        h_base = random_connected_multigraph(rng, h_vertices, max_mult=2)
        h = SinkedGraph(h_base, rng.choice(h_base.vertices))
        if sandpile_group(h).order > 40:
            continue
        fibers = {x: [f"{x}_{i}" for i in range(degree)] for x in h.nonsink_order}
        fibers[h.sink] = ["s_src"]
        vertices = [v for x in h.graph.vertices for v in fibers[x]]
        edges = []
        for x, y, m in h.graph.edges():
            if x == h.sink or y == h.sink:
                other = y if x == h.sink else x
                edges.extend((v, "s_src", m) for v in fibers[other])
                continue
            for _ in range(m):
                perm = list(range(degree))
                rng.shuffle(perm)
                edges.extend((fibers[x][i], fibers[y][perm[i]], 1) for i in range(degree))
        g_base = build_multigraph(vertices, edges)
        if not g_base.is_connected():
            continue
        g = SinkedGraph(g_base, "s_src")
        mapping = {v: x for x in h.graph.vertices for v in fibers[x]}
        return validate_hom(
            VertexMap(g, h, mapping), list(h.nonsink_order), "uniform",
            require_surjective=True,
        )


def projection_hom() -> UniformHom:
    """The weak projection of cone(C3 x K2) onto cone(C3)."""
    g, h = cycle_graph(3), k2()
    prod = cone(cartesian_product(g, h))
    base = cone(g)
    mapping = {f"({u},{v})": u for u in g.vertices for v in h.vertices}
    mapping[prod.sink] = base.sink
    return validate_hom(
        VertexMap(prod, base, mapping), g.vertices, "weak", require_surjective=True
    )


class TestValidation:
    def test_identity_map_is_uniform_of_degree_one(self):
        g = cycle_graph(4)
        hom = validate_hom(
            VertexMap(g, g, {v: v for v in g.vertices}), g.vertices, "uniform"
        )
        assert hom.degree == 1 and hom.surjective

    def test_contraction_hom_valid(self):
        hom = contraction_hom()
        assert hom.degree == 2 and hom.kind == "uniform"

    def test_pentagon_to_triangle_fails(self):
        c5, c3 = cycle_graph(5), cycle_graph(3)
        vmap = VertexMap(
            c5, c3, {"v1": "v1", "v2": "v2", "v4": "v2", "v3": "v3", "v5": "v3"}
        )
        with pytest.raises(ClauseViolation) as err:
            validate_hom(vmap, c3.vertices, "uniform")
        assert err.value.clause in ("fiber-size", "degree-count")

    def test_chorded_pentagon_to_triangle_fails(self):
        c3 = build_multigraph(["u1", "u2", "u3"], [("u1", "u2", 1), ("u2", "u3", 1), ("u1", "u3", 1)])
        g = build_multigraph(
            [f"v{i}" for i in range(1, 6)],
            [("v1", "v2", 1), ("v2", "v3", 1), ("v3", "v4", 1), ("v4", "v5", 1),
             ("v5", "v1", 1), ("v2", "v5", 1), ("v1", "v3", 1), ("v1", "v4", 1)],
        )
        vmap = VertexMap(g, c3, {"v1": "u1", "v2": "u2", "v4": "u2", "v3": "u3", "v5": "u3"})
        with pytest.raises(ClauseViolation):
            validate_hom(vmap, c3.vertices, "uniform")

    def test_padded_pentagon_is_uniform_of_degree_two(self):
        target = build_multigraph(
            ["u1", "u2", "u3"],
            [("u1", "u2", 1), ("u2", "u3", 2), ("u1", "u3", 1)],
        )
        g = build_multigraph(
            [f"v{i}" for i in range(1, 6)] + ["w1"],
            [("v1", "v2", 1), ("v2", "v3", 1), ("v3", "v4", 1), ("v4", "v5", 1),
             ("v5", "v1", 1), ("v2", "v5", 1), ("w1", "v4", 1), ("w1", "v3", 1)],
        )
        mapping = {"v1": "u1", "w1": "u1", "v2": "u2", "v4": "u2", "v3": "u3", "v5": "u3"}
        hom = validate_hom(VertexMap(g, target, mapping), target.vertices, "uniform",
                           require_surjective=True)
        assert hom.degree == 2

    def test_stability_clause(self):
        # map both ends of an edge onto the same target vertex
        g = build_multigraph(["a", "b", "c"], [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
        h = build_multigraph(["x", "y"], [("x", "y", 2)])
        vmap = VertexMap(g, h, {"a": "x", "b": "x", "c": "y"})
        with pytest.raises(ClauseViolation) as err:
            validate_hom(vmap, ["x", "y"], "uniform")
        assert err.value.clause in ("fiber-size", "stability", "degree-count")

    def test_not_surjective(self):
        g = k2()
        h = cycle_graph(3)
        vmap = VertexMap(g, h, {"v1": "v1", "v2": "v2"})
        with pytest.raises(NotSurjective):
            validate_hom(vmap, h.vertices, "weak", require_surjective=True)

    def test_degree_count_witness_names_vertex_pair(self):
        c5, c3 = cycle_graph(5), cycle_graph(3)
        # pad the pentagon so fibers have equal size 2 but counts break
        g = build_multigraph(
            c5.vertices + ("v6",),
            [(u, v, m) for u, v, m in c5.edges()] + [("v6", "v5", 1)],
        )
        vmap = VertexMap(
            g, c3,
            {"v1": "v1", "v6": "v1", "v2": "v2", "v4": "v2", "v3": "v3", "v5": "v3"},
        )
        with pytest.raises(ClauseViolation) as err:
            validate_hom(vmap, c3.vertices, "uniform")
        assert err.value.clause == "degree-count"
        assert len(err.value.witness) == 4

    @pytest.mark.parametrize(
        "edges, mapping, witness",
        [
            # b and c both land on y: the complement map is not injective.
            ([("a", "b", 1), ("a", "c", 1)], {"a": "x", "b": "y", "c": "y"}, ("b", "c")),
            # b and c are adjacent, their images y and z are not.
            ([("a", "b", 1), ("a", "c", 1), ("b", "c", 1)],
             {"a": "x", "b": "y", "c": "z"}, ("b", "c")),
        ],
        ids=["not-injective", "multiplicity"],
    )
    def test_identity_on_complement_clause(self, edges, mapping, witness):
        h = build_multigraph(["x", "y", "z"], [("x", "y", 1), ("x", "z", 1)])
        g = build_multigraph(["a", "b", "c"], edges)
        with pytest.raises(ClauseViolation) as err:
            validate_hom(VertexMap(g, h, mapping), ["x"], "uniform")
        assert err.value.clause == "identity-on-complement"
        assert err.value.witness == witness


    @pytest.mark.parametrize("make, error, message", [
        (lambda c3, ident: validate_hom(VertexMap(
            build_digraph(c3.vertices, [("v1", "v2", 1), ("v2", "v3", 1), ("v3", "v1", 1)]),
            c3, ident), c3.vertices, "uniform"),
         NotUndirected, "need undirected multigraphs"),
        (lambda c3, ident: validate_hom(VertexMap(c3, c3, ident), c3.vertices, "directed"),
         NotUndirected, "to orient edges"),
        (lambda c3, ident: VertexMap(c3, c3, {"v1": "v1", "v2": "v2"}),
         UnknownVertex, "map is not total: 'v3' unmapped"),
        (lambda c3, ident: VertexMap(c3, c3, {**ident, "x": "v1"}),
         UnknownVertex, "map mentions unknown vertex 'x'"),
        (lambda c3, ident: VertexMap(c3, c3, {**ident, "v3": "x"}),
         UnknownVertex, "image vertex 'x' not in target"),
        (lambda c3, ident: validate_hom(VertexMap(c3, c3, ident), c3.vertices, "strong"),
         ValueError, "unknown kind 'strong'"),
        (lambda c3, ident: validate_hom(VertexMap(c3, c3, ident), ["x"], "uniform"),
         UnknownVertex, "subset vertex 'x' not in target"),
    ], ids=["digraph-uniform", "multigraph-directed", "not-total", "unknown-vertex",
            "image-outside-target", "unknown-kind", "subset-outside-target"])
    def test_malformed_maps_are_refused(self, make, error, message):
        c3 = cycle_graph(3)
        with pytest.raises(error, match=message):
            make(c3, {v: v for v in c3.vertices})


@st.composite
def hom_cases(draw):
    """A vertex map between small graphs, with a subset, a kind and a
    surjectivity request.  Half are fiber-by-fiber covers of the target
    (valid homomorphisms before an optional nudge), half are random maps
    between random graphs.  Both graphs are digraphs or multigraphs, with or
    without a sink; source labels are shuffled against vertex order, so the
    label order of a witness pair differs from its vertex order."""
    kind = draw(st.sampled_from(HOM_KINDS))
    arcs = kind == "directed" and draw(st.booleans())
    sinked = draw(st.booleans())
    multiplicity = st.integers(0, 2)

    def graph(labels, edges, sink):
        if arcs and sink is not None:
            # The sink sends no arcs and receives one from every vertex, so
            # it is a global sink.
            edges = [e for e in edges if e[0] != sink] + [
                (v, sink, 1) for v in labels if v != sink]
        g = (build_digraph if arcs else build_multigraph)(labels, edges)
        return edges, g if sink is None else SinkedGraph(g, sink)

    def pairs(labels):
        return itertools.permutations(labels, 2) if arcs else itertools.combinations(labels, 2)

    tgt = [f"x{i}" for i in range(draw(st.integers(1, 4)))]
    tgt_edges = [(x, y, m) for x, y in pairs(tgt) if (m := draw(multiplicity))]
    tgt_sink = tgt[-1] if sinked else None
    tgt_edges, target = graph(tgt, tgt_edges, tgt_sink)
    subset = [x for x in tgt if draw(st.booleans())]

    if draw(st.booleans()):
        degree = draw(st.integers(1, 3))
        sizes = [degree if x in subset else 1 for x in tgt]
        names = draw(st.permutations([f"u{i}" for i in range(sum(sizes))]))
        fibers, start = {}, 0
        for x, size in zip(tgt, sizes):
            fibers[x], start = names[start:start + size], start + size
        edges = []
        for x, y, m in tgt_edges:
            fx, fy = fibers[x], fibers[y]
            if len(fx) == len(fy):
                for _ in range(m):
                    perm = draw(st.permutations(range(len(fy))))
                    edges += [(fx[i], fy[perm[i]], 1) for i in range(len(fx))]
            else:
                edges += [(u, w, m) for u in fx for w in fy]
        labels = [v for x in tgt for v in fibers[x]]
        if len(labels) > 1 and draw(st.booleans()):
            edges.append((*draw(st.permutations(labels))[:2], 1))
        mapping = {v: x for x in tgt for v in fibers[x]}
        if draw(st.booleans()):
            mapping[draw(st.sampled_from(labels))] = draw(st.sampled_from(tgt))
        src_sink = fibers[tgt_sink][0] if sinked and len(fibers[tgt_sink]) == 1 else None
    else:
        labels = draw(st.permutations([f"u{i}" for i in range(draw(st.integers(1, 6)))]))
        edges = [(u, w, m) for u, w in pairs(labels) if (m := draw(multiplicity))]
        mapping = {v: draw(st.sampled_from(tgt)) for v in labels}
        src_sink = labels[-1] if sinked else None
    _, source = graph(labels, edges, src_sink)
    return VertexMap(source, target, mapping), subset, kind, draw(st.booleans())


def _outcome(check, *args):
    """What a clause check gives: the hom's fields, the violated clause with
    its witness, or the refusal."""
    try:
        result = check(*args)
    except ClauseViolation as err:
        return "clause", err.clause, err.witness
    except (NotSurjective, NotUndirected, UnknownVertex) as err:
        return type(err).__name__, str(err)
    if isinstance(result, UniformHom):
        return "hom", (result.subset, result.kind, result.degree, result.surjective)
    return "hom", result


class TestClausesAgainstPairs:
    """validate_hom reads index rows; the oracle looks up every label pair."""

    @settings(max_examples=400, deadline=None)
    @given(hom_cases())
    def test_same_result_clause_and_witness(self, case):
        assert _outcome(validate_hom, *case) == _outcome(hom_clauses_by_pairs, *case)

    def test_the_corpus_reaches_every_outcome(self):
        # The cover half of the strategy gives valid homs of every kind, and
        # the nudges and random maps break each clause.
        seen = set()

        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(hom_cases())
        def collect(case):
            outcome = _outcome(validate_hom, *case)
            seen.add(outcome[:2] if outcome[0] == "clause" else (outcome[0], case[2]))

        collect()
        assert {("clause", c) for c in ("fiber-size", "identity-on-complement",
                                        "stability", "degree-count")} <= seen
        assert {("hom", kind) for kind in HOM_KINDS} <= seen

    @pytest.mark.parametrize("subset", [[], ["x"], ["x", "y"]])
    def test_directed_kind_refuses_a_plain_multigraph_up_front(self, subset):
        # a-b onto x-y with both ends on x: the refusal no longer depends on
        # which clause would have looked at a multiplicity first.
        g = build_multigraph(["a", "b"], [("a", "b", 1)])
        h = build_multigraph(["x", "y"], [("x", "y", 1)])
        vmap = VertexMap(g, h, {"a": "x", "b": "x"})
        with pytest.raises(NotUndirected, match="to orient edges"):
            validate_hom(vmap, subset, "directed")
        one = build_multigraph(["a"], [])
        with pytest.raises(NotUndirected, match="to orient edges"):
            validate_hom(VertexMap(one, one, {"a": "a"}), subset[:0], "directed")


class TestDegreeLaw:
    def test_blowup_degrees(self):
        rng = random.Random(2)
        for _ in range(10):
            hom = blowup_hom(rng)
            src = hom.source
            tgt = hom.target
            for v in src.graph.vertices:
                fv = hom(v)
                if fv in hom.subset:
                    assert src.graph.degree(v) == tgt.graph.degree(fv)
                else:
                    assert src.graph.degree(v) == hom.degree * tgt.graph.degree(fv)

    def test_fiber_pairs_are_regular_bipartite(self):
        rng = random.Random(4)
        for _ in range(10):
            hom = blowup_hom(rng)
            src = hom.source.graph
            tgt = hom.target.graph
            for x in hom.subset:
                for y in hom.subset:
                    if x == y:
                        continue
                    m = tgt.multiplicity(x, y)
                    for u in hom.vertex_map.fiber(x):
                        inside = sum(
                            src.multiplicity(u, w) for w in hom.vertex_map.fiber(y)
                        )
                        assert inside == m


class TestPullback:
    def test_contraction_example(self):
        hom = contraction_hom()
        assert pullback(hom, (0, 3)) == (0, 3, 0, 3)
        assert pullback(hom, (1, 2)) == (1, 2, 1, 2)

    def test_identity_hom_pullback_is_identity(self):
        g = cone(cycle_graph(4))
        hom = validate_hom(
            VertexMap(g, g, {v: v for v in g.graph.vertices}),
            g.nonsink_order,
            "uniform",
            require_surjective=True,
        )
        assert pullback(hom, (1, 2, 0, 1)) == (1, 2, 0, 1)

    def test_identity_pullback_gives_source_identity(self):
        hom = contraction_hom()
        tgt_identity = sandpile_group(hom.target).identity
        img = induced_map(hom, tgt_identity)
        assert img.values == sandpile_group(hom.source).identity.values

    def test_pullback_commutes_with_stabilization(self):
        hom = contraction_hom()
        rng = random.Random(6)
        tgt, src = hom.target, hom.source
        for _ in range(30):
            c = tuple(rng.randint(0, 2 * d) for d in tgt.out_degrees)
            lhs = pullback(hom, stabilize(tgt, c)[0])
            rhs = stabilize(src, pullback(hom, c))[0]
            assert lhs == rhs

    def test_recurrents_pull_back_to_recurrents(self):
        hom = contraction_hom()
        g_src = sandpile_group(hom.source)
        for c in sandpile_group(hom.target).recurrents():
            img = induced_map(hom, RecurrentConfig(hom.target, c, "orbit"))
            assert g_src.is_recurrent(img.values)

    def test_induced_map_refuses_a_configuration_of_another_graph(self):
        hom = contraction_hom()
        with pytest.raises(PreconditionViolated, match="different graph"):
            induced_map(hom, sandpile_group(hom.source).identity)

    def test_preconditions_enforced(self):
        g = cycle_graph(4)
        hom = validate_hom(
            VertexMap(g, g, {v: v for v in g.vertices}), g.vertices, "uniform"
        )
        with pytest.raises(PreconditionViolated):
            pullback(hom, (0, 0, 0, 0))  # no sinks anywhere

    @pytest.mark.parametrize(
        "subset, message",
        [
            (["v1", "v2", "v3", "v4", "s"], "target sink must lie outside the subset"),
            (["v1", "v3"], "target complement is not a stable set"),
        ],
        ids=["sink-in-subset", "unstable-complement"],
    )
    def test_undirected_preconditions_enforced(self, subset, message):
        # The identity of cone(C_4) is uniform for every subset; the pullback
        # still needs the sink outside it and a stable complement.
        g = cone(cycle_graph(4))
        hom = validate_hom(VertexMap(g, g, {v: v for v in g.graph.vertices}), subset, "uniform")
        with pytest.raises(PreconditionViolated, match=message):
            pullback(hom, (0, 0, 0, 0))


def blowup_draw(i: int) -> UniformHom:
    """The i-th blowup_hom drawn from random.Random(8)."""
    rng = random.Random(8)
    for _ in range(i):
        blowup_hom(rng)
    return blowup_hom(rng)


def complete_bipartite_collapse(a: int, b: int) -> UniformHom:
    left = [f"a{i}" for i in range(a)]
    right = [f"b{j}" for j in range(b)]
    edges = [(x, y, 1) for x in left for y in right]
    return bipartite_collapse_hom(build_multigraph(left + right, edges), (left, right))


# Every surjective hom here induces an injection; star_collapse_hom is
# defined further down, so each entry is a factory.
INJECTIONS = [
    ("contraction", contraction_hom),
    ("weak-projection", projection_hom),
    ("star-collapse", lambda: star_collapse_hom()),
    *[(f"blowup-{i}", lambda i=i: blowup_draw(i)) for i in range(6)],
    *[(f"k{a}-{b}", lambda a=a, b=b: complete_bipartite_collapse(a, b))
      for a, b in ((2, 2), (3, 3), (2, 3), (2, 4), (3, 4))],
    *[(f"parity-{''.join(map(str, mask))}", lambda d=d, mask=mask: parity_collapse_hom(d, mask))
      for d in range(1, 5) for mask in all_masks(d) if any(mask)],
]


class TestInjectionVerification:
    def test_contraction_injection(self):
        report = verify_group_injection(contraction_hom())
        assert report.passed and report.image_order == 8

    def test_identity_hom_passes(self):
        g = cone(cycle_graph(3))
        hom = validate_hom(
            VertexMap(g, g, {v: v for v in g.graph.vertices}),
            g.nonsink_order,
            "uniform",
            require_surjective=True,
        )
        report = verify_group_injection(hom)
        assert report.passed and report.image_order == sandpile_group(g).order

    def test_image_order_divides_group_order(self):
        rng = random.Random(8)
        for _ in range(6):
            hom = blowup_hom(rng)
            report = verify_group_injection(hom)
            assert report.passed
            assert sandpile_group(hom.source).order % report.image_order == 0

    @pytest.mark.parametrize("make", [make for _, make in INJECTIONS],
                             ids=[name for name, _ in INJECTIONS])
    def test_image_order_against_oracles(self, make):
        hom = make()
        report = verify_group_injection(hom)
        assert report.to_dict()["mode"] == "lattice"
        assert report.image_order == image_order_by_smith_form(hom)
        assert report.image_order == image_order_by_enumeration(hom)
        assert report.passed and report.image_order == sandpile_group(hom.target).order
        assert report.recurrent_images is (True if hom.kind == "uniform" else None)

    @pytest.mark.parametrize(
        "make, factor, image_order",
        [
            (projection_hom, 2, 4),  # K(target) = Z4 + Z4
            (lambda: star_collapse_hom(), 5, 1),  # K(target) = Z5
        ],
        ids=["weak", "directed"],
    )
    def test_collapsing_pullback_is_refused(self, monkeypatch, make, factor, image_order):
        hom = make()
        monkeypatch.setattr(
            morphisms, "pullback", lambda h, x: tuple(factor * v for v in pullback(h, x))
        )
        report = verify_group_injection(hom)
        assert not report.passed and report.image_order == image_order
        assert image_order < sandpile_group(hom.target).order

    @pytest.mark.parametrize(
        "make", [contraction_hom, lambda: star_collapse_hom()], ids=["uniform", "directed"]
    )
    def test_pullback_off_the_lattice_is_refused(self, monkeypatch, make):
        hom = make()

        def shifted(h, x):
            y = list(pullback(h, x))
            y[0] += x[0]
            return tuple(y)

        monkeypatch.setattr(morphisms, "pullback", shifted)
        report = verify_group_injection(hom)
        assert not report.passed and report.image_order is None
        (relation,) = report.witness
        assert relation in reduced_laplacian(hom.target).transpose().entries
        assert sandpile_group(hom.source).in_image(shifted(hom, relation)) is None

    def test_directed_pullback_must_intertwine(self, monkeypatch):
        # Adding x_0 times a source toppling keeps every relation in the
        # lattice, but the directed kind needs P(L_tgt e_j) = L_src P(e_j).
        hom = star_collapse_hom()
        toppling = reduced_laplacian(hom.source).entries[0]
        monkeypatch.setattr(
            morphisms, "pullback",
            lambda h, x: tuple(a + x[0] * b for a, b in zip(pullback(h, x), toppling)),
        )
        report = verify_group_injection(hom)
        assert not report.passed and report.image_order is None
        assert report.witness == (reduced_laplacian(hom.target).transpose().entries[0],)

    def test_non_recurrent_pullback_is_refused(self, monkeypatch):
        # Adding a fixed toppling keeps every class, so only the burning test
        # of the images can refuse this map.
        hom = contraction_hom()
        toppling = reduced_laplacian(hom.source).entries[0]
        monkeypatch.setattr(
            morphisms, "pullback",
            lambda h, x: tuple(a + b for a, b in zip(pullback(h, x), toppling)),
        )
        report = verify_group_injection(hom)
        assert not report.passed
        assert report.image_order == 8 and report.recurrent_images is False
        assert sandpile_group(hom.target).is_recurrent(report.witness[0])

    def test_full_parity_collapse_at_d7(self):
        report = verify_group_injection(parity_collapse_hom(7, (1,) * 7))
        assert report.passed and report.image_order == 15

    def test_parity_collapse_at_d12_reads_only_the_class_map(self, monkeypatch):
        # cone(Q_12) is a Cayley cone: the witnesses and the image order come
        # from its WalshSolver, with no dense source Laplacian and no Smith
        # form of the source group.
        hom = parity_collapse_hom(12, (1,) * 12)
        built = []
        real = intlinalg.reduced_laplacian
        monkeypatch.setattr(intlinalg, "reduced_laplacian",
                            lambda g: built.append(g) or real(g))

        def refuse(a):
            raise AssertionError("invariant_factors was called")

        monkeypatch.setattr(intlinalg, "invariant_factors", refuse)
        report = verify_group_injection(hom)
        assert report.passed and report.image_order == 25
        assert report.recurrent_images is True
        assert hom.source not in built


class TestWeakHoms:
    def test_projection_is_weak_not_uniform(self):
        hom = projection_hom()
        assert hom.kind == "weak" and hom.degree == 2
        with pytest.raises(ClauseViolation) as err:
            validate_hom(hom.vertex_map, hom.subset, "uniform")
        assert err.value.clause == "stability"

    def test_weak_pullback_needs_representative(self):
        hom = projection_hom()
        tgt_group = sandpile_group(hom.target)
        src_group = sandpile_group(hom.source)
        moved = 0
        for c in tgt_group.recurrents():
            raw = pullback(hom, c)
            rep = induced_map(hom, RecurrentConfig(hom.target, c, "orbit"))
            assert src_group.is_recurrent(rep.values)
            assert src_group.congruent(raw, rep.values)
            if raw != rep.values:
                moved += 1
        assert moved > 0  # raw pullbacks are not all recurrent

    def test_weak_induced_map_is_injective_homomorphism(self):
        report = verify_group_injection(projection_hom())
        assert report.passed


def star_collapse_hom() -> UniformHom:
    """The directed collapse of the cone of the 3-leaf star onto thick_k2_cone(3, 1)."""
    star = build_multigraph(
        ["c", "l1", "l2", "l3"], [("c", "l1", 1), ("c", "l2", 1), ("c", "l3", 1)]
    )
    return bipartite_collapse_hom(star, (["c"], ["l1", "l2", "l3"]))


def _altered(hom: UniformHom, source=None, target=None, surjective=None,
             **changes) -> UniformHom:
    """hom with its source, target, surjectivity flag or images replaced, built
    by the constructor and not validated, so the pullback's own checks refuse it."""
    vmap = hom.vertex_map
    mapping = {**vmap.mapping, **changes}
    return UniformHom(
        VertexMap(source or vmap.source, target or vmap.target, mapping), hom.subset,
        hom.kind, hom.degree, hom.surjective if surjective is None else surjective,
    )


def fibred_digraph_hom(seed: int) -> UniformHom:
    """The directed hom of a seeded digraph onto thick_k2_cone(r, t), r != t.
    The source has fibres A over v1 and B over v2, of 1 to 4 vertices each;
    every vertex of A sends r arcs into B and every vertex of B sends t arcs
    into A, to heads drawn at random, and every vertex has one arc to the
    sink.  Drawn again while L = L^T, as it can be when r = 1, B is one
    vertex and t = |A|."""
    rng = random.Random(seed)
    while True:
        r, t = rng.sample(range(1, 4), 2)
        fibres = {"v1": [f"a{i}" for i in range(rng.randint(1, 4))],
                  "v2": [f"b{i}" for i in range(rng.randint(1, 4))]}
        arcs = [(u, "s", 1) for part in fibres.values() for u in part]
        for x, y, k in (("v1", "v2", r), ("v2", "v1", t)):
            arcs += [(u, rng.choice(fibres[y]), 1) for u in fibres[x] for _ in range(k)]
        source = SinkedGraph(build_digraph([*fibres["v1"], *fibres["v2"], "s"], arcs), "s")
        lap = reduced_laplacian(source)
        if lap != lap.transpose():
            break
    mapping = {u: x for x, part in fibres.items() for u in part}
    vmap = VertexMap(source, thick_k2_cone(r, t), {**mapping, "s": "s"})
    return validate_hom(vmap, ["v1", "v2"], "directed", require_surjective=True)


class TestDirectedHoms:
    def test_pullback_chips_of_zero(self):
        hom = star_collapse_hom()
        assert hom.kind == "directed"
        assert pullback(hom, (0, 0)) == (0, 0, 0, 0)

    @pytest.mark.parametrize(
        "perturb, message",
        [
            (lambda h: _altered(h, source=h.source.graph), "source graph carries no sink"),
            (lambda h: _altered(h, target=h.target.graph), "target graph carries no sink"),
            (lambda h: _altered(h, surjective=False), "not surjective"),
            (lambda h: _altered(h, l1="s"), "sink fiber must be exactly the source sink"),
        ],
        ids=["unsinked-source", "unsinked-target", "not-surjective", "sink-fiber"],
    )
    def test_pullback_chips_refusals(self, perturb, message):
        with pytest.raises(PreconditionViolated, match=message):
            pullback(perturb(star_collapse_hom()), (0, 0))

    def test_pullback_chips_refuses_wrong_length(self):
        with pytest.raises(PreconditionViolated, match="vector length"):
            pullback(star_collapse_hom(), (0, 0, 0))

    def test_columns_pull_into_source_lattice(self):
        hom = star_collapse_hom()
        g_src = sandpile_group(hom.source)
        lap_t = reduced_laplacian(hom.target).transpose()
        for row in lap_t.entries:
            assert g_src.in_image(pullback(hom, row)) is not None

    def test_directed_kind_acts_on_the_column_quotient(self):
        # The directed pullback intertwines the columns of L, so it acts on
        # Z^n / Im L.  On this digraph target that is not the chip-class
        # quotient Z^n / Im L^T of SandpileGroup: a toppling is congruent to
        # 0 in the target, its pullback is not congruent to 0 in the source,
        # and the injection report still passes.
        hom = star_collapse_hom()
        g_src, g_tgt = sandpile_group(hom.source), sandpile_group(hom.target)
        toppling = reduced_laplacian(hom.target).entries[0]
        assert toppling == (4, -3) and g_tgt.congruent((0, 0), toppling)
        assert pullback(hom, (0, 0)) == (0, 0, 0, 0)
        assert pullback(hom, toppling) == (4, -3, -3, -3)
        assert g_src.in_image(pullback(hom, toppling)) is None
        report = verify_group_injection(hom)
        assert report.passed and report.image_order == 5

    def test_directed_injection_reports(self):
        hom = star_collapse_hom()
        report = verify_group_injection(hom)
        assert report.passed and report.image_order == 5
        assert sandpile_group(hom.source).order % 5 == 0

    def test_induced_map_rejects_directed(self):
        hom = star_collapse_hom()
        identity = sandpile_group(thick_k2_cone(3, 1)).identity
        assert identity.graph == hom.target
        with pytest.raises(PreconditionViolated, match="directed homs act on chip vectors"):
            induced_map(hom, identity)

    def test_one_edge_collapse_is_uniform(self):
        star = build_multigraph(["c", "l1"], [("c", "l1", 1)])
        hom = bipartite_collapse_hom(star, (["c"], ["l1"]))
        assert hom.kind == "uniform"  # degrees agree here, so it is undirected

    @pytest.mark.parametrize("seed", range(16))
    def test_digraph_source_injection_against_smith_form(self, seed):
        # On a digraph source the directed kind works in Z^m / Im L_src, a
        # different quotient from the group's Z^m / Im L_src^T: proving it
        # with the group's own solver gives wrong image orders here.
        hom = fibred_digraph_hom(seed)
        lap = reduced_laplacian(hom.source)
        assert hom.kind == "directed" and lap != lap.transpose()
        report = verify_group_injection(hom)
        assert report.image_order == image_order_by_smith_form(hom)
        assert report.passed and report.image_order == sandpile_group(hom.target).order
        assert report.recurrent_images is None

    def test_digraph_source_must_intertwine(self, monkeypatch):
        # Adding x_0 times a column of L_src keeps every relation in Im L_src,
        # but the intertwining is exact, read over the digraph's own rows.
        hom = fibred_digraph_hom(0)
        toppling = reduced_laplacian(hom.source).transpose().entries[0]
        monkeypatch.setattr(
            morphisms, "pullback",
            lambda h, x: tuple(a + x[0] * b for a, b in zip(pullback(h, x), toppling)),
        )
        report = verify_group_injection(hom)
        assert not report.passed and report.image_order is None
        assert report.witness == (reduced_laplacian(hom.target).transpose().entries[0],)


class TestBipartiteCollapse:
    def test_square(self):
        hom = bipartite_collapse_hom(
            build_multigraph(
                ["a", "b", "c", "d"],
                [("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("d", "a", 1)],
            ),
            (["a", "c"], ["b", "d"]),
        )
        assert hom.kind == "uniform"
        report = verify_group_injection(hom)
        assert report.passed and report.image_order == 5

    def test_single_edge(self):
        hom = bipartite_collapse_hom(k2(), (["v1"], ["v2"]))
        report = verify_group_injection(hom)
        assert report.passed and report.image_order == 3
        assert sandpile_group(hom.source).order == 3

    def test_not_biregular(self):
        path4 = build_multigraph(
            ["a", "b", "c", "d"], [("a", "b", 1), ("b", "c", 1), ("c", "d", 1)]
        )
        with pytest.raises(NotBiregular):
            bipartite_collapse_hom(path4, (["a", "c"], ["b", "d"]))
        path3 = build_multigraph(["a", "b", "c"], [("a", "b", 1), ("b", "c", 1)])
        with pytest.raises(NotBiregular):
            bipartite_collapse_hom(path3, (["a", "b"], ["c"]))
        for parts in ((["b"], ["a"]), (["a", "b"], ["b", "c"])):
            with pytest.raises(NotBiregular, match="must partition"):
                bipartite_collapse_hom(path3, parts)

    def test_independence_witness_follows_the_class_order(self):
        # Both b-c and e-c lie inside the class [e, b, c].  The witness is
        # the first class member with a neighbour in the class, paired with
        # the neighbour that comes first in the class, as the label-pair loop
        # over the class finds it; vertex order would name b-c.
        g = build_multigraph(
            ["a", "b", "c", "d", "e"],
            [("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("e", "c", 1), ("a", "e", 1)],
        )
        parts = (["e", "b", "c"], ["a", "d"])
        expected = next(f"{u}{w}" for i, u in enumerate(parts[0]) for w in parts[0][i + 1:]
                        if g.multiplicity(u, w))
        assert expected == "ec"
        with pytest.raises(NotBiregular, match=f"edge inside one class: {expected}$"):
            bipartite_collapse_hom(g, parts)
