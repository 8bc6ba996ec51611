from __future__ import annotations

import contextlib
import itertools
import random
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    contracted_square,
    grid_cone,
    random_connected_multigraph,
    random_sinked_digraph,
    random_sinked_graph,
    unconverted,
    wired_grid,
)
from oracles import (
    all_stable_configs,
    burning_order_by_sweeps,
    burning_script_by_fixed_point,
    det_by_permutation_expansion,
    forbidden_subset_by_enumeration,
    lift_by_le_borgne_rossin,
    recurrents_by_closure,
    representative_by_le_borgne_rossin,
    stabilize_by_random_schedule,
)
from sandpiles import dynamics
from sandpiles.dynamics import (
    RecurrentConfig,
    SandpileGroup,
    add_recurrent,
    burning_script,
    congruent,
    element_order,
    identity,
    is_recurrent_burning,
    recurrent_orbit,
    recurrent_representative,
    sandpile_group,
    stabilize,
)
from sandpiles.errors import (
    GraphMismatch,
    NoGlobalSink,
    OrbitTooLarge,
    SingularReducedLaplacian,
    ValidationFailed,
)
from sandpiles.intlinalg import IntMatrix, LatticeSolver, reduced_laplacian
from sandpiles.graphs import (
    SinkedGraph,
    build_digraph,
    build_multigraph,
    cone,
    cycle_graph,
    hypercube,
    k2,
    thick_k2_cone,
    to_sink_digraph,
)


class TestStabilize:
    def test_single_toppling(self):
        g = cone(k2())
        assert stabilize(g, (2, 0)) == ((0, 1), (1, 0))

    def test_square_cone_wave(self):
        g = cone(hypercube(2))
        assert stabilize(g, (3, 2, 3, 2)) == ((2, 1, 2, 1), (1, 1, 1, 1))

    def test_stable_input_unchanged(self):
        g = cone(cycle_graph(4))
        assert stabilize(g, (1, 2, 0, 1)) == ((1, 2, 0, 1), (0, 0, 0, 0))

    def test_negative_entries_stay_put(self):
        g = cone(k2())
        stable, firings = stabilize(g, (-3, 5))
        assert stable == (-1, 1) and firings == (0, 2)

    def test_firing_identity(self):
        rng = random.Random(3)
        for _ in range(40):
            g = random_sinked_graph(rng, rng.randint(2, 5))
            lap_t = reduced_laplacian(g).transpose()
            c = tuple(rng.randint(0, 3 * d) for d in g.out_degrees)
            stable, firings = stabilize(g, c)
            moved = lap_t.mul_vector(firings)
            assert tuple(a - b for a, b in zip(c, moved)) == stable
            assert all(0 <= x < d for x, d in zip(stable, g.out_degrees))

    def test_disconnected_raises(self):
        g = build_multigraph(["a", "b", "c"], [("a", "b", 1)])
        with pytest.raises(NoGlobalSink):
            stabilize(SinkedGraph(g, "a"), (0, 5))

    def test_wrong_length_refused(self):
        with pytest.raises(GraphMismatch, match="vector length 3 != 2"):
            stabilize(cone(k2()), (1, 0, 0))

    def test_abelian_property(self):
        rng = random.Random(9)
        for _ in range(25):
            g = random_sinked_graph(rng, rng.randint(2, 5))
            c = tuple(rng.randint(0, 3 * d) for d in g.out_degrees)
            reference = stabilize(g, c)
            for seed in range(4):
                assert stabilize_by_random_schedule(g, c, random.Random(seed)) == reference


def _kernel(g: SinkedGraph, c) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The FIFO kernel run to the end, with no budget and no ladder."""
    c = list(c)
    firings = dynamics._topple(c, g.out_degrees, g.adjacency())
    return tuple(c), tuple(firings)


def _ladder(g: SinkedGraph, c, pops: int = 0) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The ladder alone, handed the firings of a direct run cut after pops."""
    legal = [0] * len(c)
    dynamics._topple(list(c), g.out_degrees, g.adjacency(), pops, legal)
    stable, firings = dynamics._ladder(g, list(c), legal)
    return tuple(stable), tuple(firings)


def _centre_pile(k: int, chips: int) -> list[int]:
    c = [0] * (k * k)
    c[(k // 2) * k + k // 2] = chips
    return c


@pytest.fixture
def ladder_calls(monkeypatch) -> list[int]:
    """Counts the stabilizations that take the dilation ladder."""
    calls: list[int] = []
    ladder = dynamics._ladder

    def counted(graph, c, legal):
        calls.append(len(c))
        return ladder(graph, c, legal)

    monkeypatch.setattr(dynamics, "_ladder", counted)
    return calls


@pytest.fixture
def topple_budgets(monkeypatch) -> list[int | None]:
    """Records the pop budget of every kernel run, None for no budget."""
    budgets: list[int | None] = []
    topple = dynamics._topple

    def recorded(c, out, adj, pops=None, firings=None):
        budgets.append(pops)
        return topple(c, out, adj, pops, firings)

    monkeypatch.setattr(dynamics, "_topple", recorded)
    return budgets


def _random_undirected(rng: random.Random) -> SinkedGraph:
    """A random multigraph with a random sink, or a random cone."""
    if rng.random() < 0.5:
        return random_sinked_graph(rng, rng.randint(2, 7), 3)
    return cone(random_connected_multigraph(rng, rng.randint(1, 6), 3), rng.randint(1, 3))


def _big_vector(rng: random.Random, g: SinkedGraph) -> list[int]:
    """Entries from -20 up to 3 out_v, one of them raised by up to 5000."""
    c = [rng.randint(-20, 3 * d) for d in g.out_degrees]
    c[rng.randrange(len(c))] += rng.randint(0, 5000)
    return c


class TestDilationLadder:
    """Undirected stabilizations past the kernel's pop budget take the
    dilation ladder; its burn-down must stop exactly at the odometer."""

    def test_matches_random_schedule(self, ladder_calls):
        rng = random.Random(31)
        for _ in range(60):
            g = _random_undirected(rng)
            c = _big_vector(rng, g)
            reference = stabilize_by_random_schedule(g, c, random.Random(0))
            assert stabilize(g, c) == reference
            assert _ladder(g, c) == reference
            assert _ladder(g, c, rng.randint(1, 40)) == reference
        assert ladder_calls

    @pytest.mark.parametrize("graph, k", [
        pytest.param(wired_grid(16), 16, id="wired16"),
        pytest.param(wired_grid(24), 24, id="wired24"),
        pytest.param(grid_cone(12), 12, id="gridcone12"),
    ])
    def test_matches_kernel_on_grids(self, graph, k, ladder_calls):
        # Centre piles up to 2^16 and vectors with negative entries; the
        # big ones outrun the kernel's budget.
        rng = random.Random(k)
        vectors = [_centre_pile(k, 2**e) for e in (6, 10, 13, 16)]
        for _ in range(3):
            c = [rng.randint(-6, 6) for _ in range(k * k)]
            c[rng.randrange(k * k)] += 2**14
            vectors.append(c)
        for c in vectors:
            reference = _kernel(graph, c)
            assert stabilize(graph, c) == reference
            assert _ladder(graph, c) == reference
        assert ladder_calls

    def test_medium_piles_stay_direct(self, ladder_calls):
        g = wired_grid(32)
        stabilize(g, _centre_pile(32, 2**10))
        assert ladder_calls == []
        stabilize(g, _centre_pile(32, 2**13))
        assert ladder_calls == [32 * 32]

    def test_cut_run_resumes(self):
        g = wired_grid(8)
        c = _centre_pile(8, 2**9)
        out, adj = g.out_degrees, g.adjacency()
        work, firings = list(c), [0] * len(c)
        assert dynamics._topple(work, out, adj, 10, firings) is None
        assert 0 < sum(firings) < sum(_kernel(g, c)[1])
        assert dynamics._topple(work, out, adj, 10**6, firings) is firings
        assert (tuple(work), tuple(firings)) == _kernel(g, c)

    def test_budget_is_one_rung_then_one_per_bit(self, topple_budgets, monkeypatch):
        handed = []
        ladder = dynamics._ladder

        def spy(graph, c, legal):
            handed.append(list(legal))
            return ladder(graph, c, legal)

        monkeypatch.setattr(dynamics, "_ladder", spy)
        g = wired_grid(16)
        cost = g.n_nonsink + g.n_arcs
        assert cost == 16 * 16 + 2 * 2 * 16 * 15
        c = _centre_pile(16, 2**13)
        stabilize(g, c)
        assert topple_budgets[:2] == [cost, 13 * cost]
        # The ladder is handed the firings of the cut direct run.
        work, cut = list(c), [0] * len(c)
        for pops in (cost, 13 * cost):
            assert dynamics._topple(work, g.out_degrees, g.adjacency(), pops, cut) is None
        assert handed == [cut] and sum(cut) > 0

    def test_within_budget_input_is_read_once(self, ladder_calls):
        # The budget's rung count needs max(c), a pass over the input; an
        # input stabilized within one rung's pops never pays it.
        class Counted(list):
            passes = 0

            def __iter__(self):
                Counted.passes += 1
                return super().__iter__()

        g = wired_grid(32)
        assert stabilize(g, Counted(_centre_pile(32, 2**8)))[1][32 * 16 + 16] > 0
        assert Counted.passes == 1 and ladder_calls == []

    def test_overshooting_guesses_burn_down_to_the_odometer(self, monkeypatch):
        # Every set the burn-down untopples lies in {w > odometer}, with w
        # read back from s by the lattice solver: c - L^T w = s.
        unburnt = dynamics._unburnt
        returned: list[tuple[list[int], list[int]]] = []

        def spy(s, live, adj):
            found = unburnt(s, live, adj)
            returned.append((list(s), found))
            return found

        monkeypatch.setattr(dynamics, "_unburnt", spy)
        rng = random.Random(7)
        untoppled = 0
        for _ in range(200):
            g = _random_undirected(rng)
            c = _big_vector(rng, g)
            stable, odometer = _kernel(g, c)
            guess = [f + rng.randint(0, 40) for f in odometer]
            returned.clear()
            s, w = dynamics._settle(g, list(c), guess)
            assert (tuple(s), tuple(w)) == (stable, odometer)
            group = sandpile_group(g)
            for s_then, found in returned:
                w_then = group.in_image([x - y for x, y in zip(c, s_then)])
                assert all(w_then[v] > odometer[v] for v in found)
                untoppled += bool(found)
        assert untoppled > 200

    def test_restricted_burning_matches_enumeration(self):
        rng = random.Random(5)
        unburnt = 0
        for _ in range(300):
            g = _random_undirected(rng)
            n = g.n_nonsink
            s = [rng.randint(-1, d - 1) for d in g.out_degrees]
            live = [v for v in range(n) if rng.random() < 0.8]
            found = dynamics._unburnt(s, live, g.adjacency())
            assert frozenset(found) == forbidden_subset_by_enumeration(g, s, live)
            unburnt += bool(found)
        assert 30 < unburnt < 270

    def test_digraphs_never_take_the_ladder(self, topple_budgets, ladder_calls):
        rng = random.Random(2)
        for _ in range(20):
            g = random_sinked_digraph(rng, rng.randint(2, 5))
            c = [d - 1 for d in g.out_degrees]
            c[0] += 5000
            assert stabilize(g, c) == _kernel(g, c)
        assert set(topple_budgets) == {None} and ladder_calls == []

    def test_burn_down_is_wrong_on_a_digraph(self):
        # a -> b -> s with c = (1, 0): a fires once, then b, so the odometer
        # is (1, 1).  The burning reads arcs from the burnt end: b burns,
        # but no arc leads from b back to a, so a's need never drops and a
        # stays unburnt.  The burn-down, started at the odometer, untopples
        # a and then b down to (0, 0), where s = (1, 0) is not even stable.
        g = SinkedGraph(build_digraph(["a", "b", "s"], [("a", "b", 1), ("b", "s", 1)]), "s")
        assert stabilize(g, (1, 0)) == ((0, 0), (1, 1))
        assert dynamics._unburnt([0, 0], [0, 1], g.adjacency()) == [0]
        s, w = dynamics._settle(g, [1, 0], [1, 1])
        assert w == [0, 0] and s == [1, 0]


@contextlib.contextmanager
def _time_limit(seconds: int):
    """Fail with TimeoutError instead of hanging past seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestBurning:
    def test_square_cone_recurrent(self):
        g = cone(hypercube(2))
        ok, order = is_recurrent_burning(g, (2, 1, 2, 1))
        assert ok and len(order) == 4

    def test_zeros_not_recurrent(self):
        g = cone(hypercube(2))
        ok, order = is_recurrent_burning(g, (0, 0, 0, 0))
        assert not ok and order is None

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_uniform_d_vector_is_recurrent(self, d):
        g = cone(hypercube(d))
        ok, _ = is_recurrent_burning(g, (d,) * (1 << d))
        assert ok

    def test_certificate_replays_to_itself(self):
        g = cone(cycle_graph(5))
        c = (2, 1, 2, 1, 2)
        assert is_recurrent_burning(g, c) == (True, (1,) * 5)
        order = burning_order_by_sweeps(g, c)
        lap = reduced_laplacian(g)
        work = [x + b for x, b in zip(c, g.sink_mult)]
        for v in order:
            i = g.nonsink_index(v)
            assert work[i] >= g.out_degrees[i]
            work = [w - delta for w, delta in zip(work, lap.entries[i])]
        assert tuple(work) == c
        # the added chips are exactly the column sums of the reduced Laplacian
        n = g.n_nonsink
        assert tuple(sum(lap.entries[i][j] for i in range(n)) for j in range(n)) == g.sink_mult

    def test_unstable_is_not_recurrent(self):
        g = cone(k2())
        assert is_recurrent_burning(g, (5, 0)) == (False, None)

    def test_disconnected_graph_is_never_recurrent(self):
        # {a, b} has no path to the sink: a stable configuration never burns
        # there, and an unstable one would topple forever.
        g = SinkedGraph(
            build_multigraph(["a", "b", "c", "s"], [("a", "b", 1), ("c", "s", 1)]), "s"
        )
        assert g.nonsink_order == ("a", "b", "c")
        with _time_limit(5):
            for c in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)):
                assert is_recurrent_burning(g, c) == (False, None)
                assert not SandpileGroup(g).is_recurrent(c)

    def test_agrees_with_sweep_oracle(self):
        rng = random.Random(47)
        graphs = [random_sinked_graph(rng, rng.randint(2, 5)) for _ in range(40)]
        graphs += [random_sinked_digraph(rng, rng.randint(1, 4)) for _ in range(40)]
        graphs += [thick_k2_cone(r, t) for r in range(1, 8) for t in range(1, 8)]
        for g in graphs:
            sigma = burning_script_by_fixed_point(g)[0]
            group = SandpileGroup(g)
            for c in all_stable_configs(g.out_degrees):
                recurrent = burning_order_by_sweeps(g, c) is not None
                assert is_recurrent_burning(g, c) == ((True, sigma) if recurrent
                                                      else (False, None))
                assert group.is_recurrent(c) == recurrent

    def test_free_function_is_the_group_test(self, monkeypatch):
        # Stable and unstable inputs alike, on graphs and digraphs; the
        # script is computed once per cached group, not once per call.
        from sandpiles import dynamics

        scripts = []
        monkeypatch.setattr(dynamics, "burning_script",
                            lambda g: scripts.append(g) or burning_script(g))
        monkeypatch.setattr(dynamics, "_group_cache", {})
        rng = random.Random(20)
        graphs = [random_sinked_graph(rng, rng.randint(2, 4)) for _ in range(10)]
        graphs += [random_sinked_digraph(rng, rng.randint(1, 3)) for _ in range(10)]
        graphs += [thick_k2_cone(2, 5), cone(hypercube(2), 3)]
        graphs = list(dict.fromkeys(graphs))
        for g in graphs:
            sigma = burning_script(g)[0]
            group = SandpileGroup(g)
            for c in itertools.product(*(range(d + 2) for d in g.out_degrees)):
                recurrent = group.is_recurrent(c)
                assert is_recurrent_burning(g, c) == ((True, sigma) if recurrent
                                                      else (False, None))
        # One script for each local group and one for each cached group.
        assert len(scripts) == 2 * len(graphs)


class TestSpeerBurning:
    """One burning test for digraphs and undirected graphs, checked against
    the orbit enumeration of recurrents() and a fixed-point script oracle."""

    def test_script_matches_fixed_point_oracle(self):
        rng = random.Random(5)
        graphs = [random_sinked_digraph(rng, rng.randint(1, 6), 3) for _ in range(60)]
        graphs += [thick_k2_cone(r, t) for r in range(1, 8) for t in range(1, 8)]
        for g in graphs:
            sigma, beta = burning_script(g)
            assert (sigma, beta) == burning_script_by_fixed_point(g)
            assert reduced_laplacian(g).transpose().mul_vector(sigma) == beta

    def test_undirected_general_route_gives_closed_form(self):
        rng = random.Random(6)
        for _ in range(30):
            g = random_sinked_graph(rng, rng.randint(2, 6), 3)
            general = burning_script(to_sink_digraph(g.graph, g.sink))
            assert general == burning_script(g) == ((1,) * g.n_nonsink, g.sink_mult)

    def test_group_law_agrees_with_orbit_on_random_digraphs(self):
        rng = random.Random(23)
        for _ in range(100):
            g = random_sinked_digraph(rng, rng.randint(1, 4))
            group = SandpileGroup(g)
            orbit = group.recurrents()
            for c in itertools.product(*(range(d) for d in g.out_degrees)):
                assert group.is_recurrent(c) == (c in orbit)
            recs = sorted(orbit)
            for _ in range(3):
                x = tuple(rng.randint(-9, 9) for _ in range(g.n_nonsink))
                rc = group.representative(x)
                assert rc.values in orbit and group.congruent(rc.values, x)
                a = RecurrentConfig(g, recs[rng.randrange(len(recs))], "input")
                assert group.add(a, rc).values == group.add_values(a.values, rc.values)
            assert all(group.add_values(group.identity.values, c) == c for c in recs)

    def test_digraph_certificate_replays_to_itself(self):
        g = thick_k2_cone(2, 7)
        assert is_recurrent_burning(g, (2, 7)) == (True, (3, 1))
        order = burning_order_by_sweeps(g, (2, 7))
        assert sorted(order) == ["v1"] * 3 + ["v2"]
        lap = reduced_laplacian(g)
        work = [x + b for x, b in zip((2, 7), burning_script(g)[1])]
        for v in order:
            i = g.nonsink_index(v)
            assert work[i] >= g.out_degrees[i]
            work = [w - delta for w, delta in zip(work, lap.entries[i])]
        assert tuple(work) == (2, 7)

    def test_digraph_negative_entries_refused(self):
        with pytest.raises(ValueError):
            SandpileGroup(thick_k2_cone(2, 3)).is_recurrent((-1, 3))

    def test_digraph_beyond_orbit_guard(self):
        g = thick_k2_cone(1450, 1549)
        group = SandpileGroup(g, orbit_guard=10)
        e = group.identity
        assert e.certificate == "burning"
        rc = group.representative((5, -3))
        assert group.is_recurrent(rc.values) and group.congruent(rc.values, (5, -3))
        assert group.add(e, rc).values == rc.values
        assert not group.is_recurrent((0, 0))
        with pytest.raises(OrbitTooLarge):
            group.recurrents()


class TestOrbit:
    def test_triangle(self):
        assert recurrent_orbit(cone(k2())) == {(1, 0), (0, 1), (1, 1)}

    def test_square_cone_size(self):
        assert len(recurrent_orbit(cone(hypercube(2)))) == 45

    def test_thick_pair_orbit(self):
        orbit = recurrent_orbit(thick_k2_cone(2, 2))
        assert orbit == {(m, l) for m in range(3) for l in range(3) if m == 2 or l == 2}

    def test_size_matches_determinant(self):
        rng = random.Random(31)
        for _ in range(15):
            g = random_sinked_graph(rng, rng.randint(2, 4))
            group = sandpile_group(g)
            assert len(group.recurrents()) == group.order

    def test_guard(self):
        from sandpiles.dynamics import SandpileGroup

        with pytest.raises(OrbitTooLarge):
            SandpileGroup(cone(hypercube(3)), orbit_guard=10).recurrents()

    def test_guard_answers_alike_warm_and_cold(self, monkeypatch):
        # The guard applies on every call, to a cached set too, and a new
        # guard keeps the cached group with its factorization and identity.
        from sandpiles import dynamics

        monkeypatch.setattr(dynamics, "_group_cache", {})
        g = cone(hypercube(2))
        with pytest.raises(OrbitTooLarge):
            recurrent_orbit(g, 5)
        group = sandpile_group(g)
        assert len(recurrent_orbit(g)) == 45
        with pytest.raises(OrbitTooLarge):
            recurrent_orbit(g, 5)
        assert len(recurrent_orbit(g, 45)) == 45
        assert sandpile_group(g, 10**7) is group and group.orbit_guard == 10**7
        with pytest.raises(OrbitTooLarge):
            recurrent_orbit(g, 44)

    def test_guard_floor_is_exact_on_point_cones(self):
        # Every stable configuration of a point cone is recurrent, so the
        # identity's up-set is the whole group.
        g = cone(hypercube(0), 5)
        assert len(SandpileGroup(g, orbit_guard=5).recurrents()) == 5
        with pytest.raises(OrbitTooLarge, match="up-set"):
            SandpileGroup(g, orbit_guard=4).recurrents()

    def test_guard_refuses_a_huge_order_without_printing_it(self, monkeypatch):
        # The cube cone's identity floor is 1, so the guard reads |det L|;
        # an order past Python's 4300-digit str() limit must still refuse.
        group = SandpileGroup(cone(hypercube(3)))
        monkeypatch.setattr(SandpileGroup, "order", property(lambda self: 10**5000))
        with pytest.raises(OrbitTooLarge, match="16610-bit"):
            group.recurrents()

    def test_cold_guard_refuses_before_factoring(self, factorizations):
        # The identity's up-set alone exceeds the guard; |det L| of the
        # 10^4 x 10^4 reduced Laplacian is never computed.
        g = grid_cone(100)
        start = time.perf_counter()
        with pytest.raises(OrbitTooLarge, match="more than 1000000"):
            SandpileGroup(g).recurrents()
        assert time.perf_counter() - start < 5
        assert factorizations == []

    def test_closure_stops_past_the_determinant(self, monkeypatch):
        # 45 recurrents against a claimed order of 5: the enumeration must
        # refuse at the sixth, not after the queue drains.
        monkeypatch.setattr(SandpileGroup, "order", property(lambda self: 5))
        with pytest.raises(ValidationFailed, match="more than 5 elements"):
            SandpileGroup(cone(hypercube(2))).recurrents()

    def test_closure_short_of_the_determinant_is_caught(self, monkeypatch):
        monkeypatch.setattr(SandpileGroup, "order", property(lambda self: 46))
        with pytest.raises(ValidationFailed, match="45 elements, not 46"):
            SandpileGroup(cone(hypercube(2))).recurrents()

    def test_chain_runs_past_a_claimed_order_it_reaches_early(self, monkeypatch):
        # K(cone Q_2) = Z_3 + Z_15: the first vertex's coset already has 15
        # elements.  Stopping there would certify a wrong set; the next
        # coset must be refused before it is enumerated.
        monkeypatch.setattr(SandpileGroup, "order", property(lambda self: 15))
        with pytest.raises(ValidationFailed, match="more than 15 elements"):
            SandpileGroup(cone(hypercube(2))).recurrents()

    @pytest.mark.parametrize("g", [
        pytest.param(cone(hypercube(3)), id="cube3"),
        *(pytest.param(cone(cycle_graph(k)), id=f"cycle{k}") for k in range(6, 11)),
        pytest.param(thick_k2_cone(1592, 1407), id="thick1592-1407"),
        pytest.param(cone(hypercube(2), 3), id="cube2n3"),
        pytest.param(cone(hypercube(2), 5), id="cube2n5"),
        pytest.param(cone(cycle_graph(6), 3), id="cycle6n3"),
    ])
    def test_matches_closure_oracle(self, g):
        assert SandpileGroup(g).recurrents() == recurrents_by_closure(g)

    def test_matches_closure_oracle_on_random_multigraph_cones(self):
        # Parallel edges carry a neighbour past its out-degree by several
        # chips in one firing, and up to six vertices give long avalanches.
        rng = random.Random(53)
        for k in (3, 4, 5, 6):
            for _ in range(5):
                g = cone(random_connected_multigraph(rng, k, 3))
                assert SandpileGroup(g).recurrents() == recurrents_by_closure(g)

    def test_matches_closure_oracle_on_random_digraphs(self):
        rng = random.Random(47)
        for _ in range(30):
            g = random_sinked_digraph(rng, rng.randint(1, 6))
            assert SandpileGroup(g).recurrents() == recurrents_by_closure(g)

    @pytest.mark.parametrize("kind", ["graph", "digraph"])
    def test_matches_burning_filter_on_random_graphs(self, kind):
        rng = random.Random(41 if kind == "graph" else 43)
        for _ in range(30):
            if kind == "graph":
                g = random_sinked_graph(rng, rng.randint(2, 5))
            else:
                g = random_sinked_digraph(rng, rng.randint(1, 4))
            expected = {c for c in all_stable_configs(g.out_degrees)
                        if is_recurrent_burning(g, c)[0]}
            # A guard of exactly |K| never refuses.
            assert SandpileGroup(g, orbit_guard=len(expected)).recurrents() == expected

    @pytest.mark.parametrize("r,t", itertools.product(range(1, 8), repeat=2))
    def test_matches_burning_filter_on_thick_pair_cones(self, r, t):
        # Avalanches run back and forth between the two vertices.
        g = thick_k2_cone(r, t)
        expected = {c for c in all_stable_configs(g.out_degrees)
                    if is_recurrent_burning(g, c)[0]}
        assert SandpileGroup(g, orbit_guard=len(expected)).recurrents() == expected

    def test_burning_agrees_with_orbit_membership(self):
        rng = random.Random(17)
        for _ in range(10):
            g = random_sinked_graph(rng, rng.randint(2, 4))
            orbit = sandpile_group(g).recurrents()
            for c in itertools.product(*(range(d) for d in g.out_degrees)):
                assert is_recurrent_burning(g, c)[0] == (c in orbit)


class TestIdentity:
    def test_pentagon_cone(self):
        assert identity(cone(cycle_graph(5))).values == (2, 2, 2, 2, 2)

    def test_square_cone(self):
        assert identity(cone(hypercube(2))).values == (2, 2, 2, 2)

    def test_triple_cone_of_edge(self):
        assert identity(cone(hypercube(1), 3)).values == (3, 3)

    def test_neutrality(self):
        g = cone(cycle_graph(4))
        group = sandpile_group(g)
        e = group.identity
        for c in group.recurrents():
            assert group.add_values(e.values, c) == c

    def test_sink_only_graph_has_empty_identity(self):
        g = SinkedGraph(build_multigraph(["s"], []), "s")
        assert identity(g).values == ()

    def test_digraph_identity_is_neutral(self):
        g = thick_k2_cone(2, 3)
        group = sandpile_group(g)
        e = group.identity
        for c in group.recurrents():
            assert group.add_values(e.values, c) == c


class TestAddRecurrent:
    def test_edge_cone_power(self):
        g = cone(k2())
        gen = RecurrentConfig(g, (1, 0), "burning")
        assert add_recurrent(gen, gen).values == (0, 1)

    def test_contracted_square_sum(self):
        g = contracted_square()
        a = RecurrentConfig(g, (2, 1, 2, 3), "burning")
        b = RecurrentConfig(g, (2, 2, 2, 0), "burning")
        assert add_recurrent(a, b).values == (0, 3, 0, 3)

    def test_identity_is_idempotent(self):
        g = cone(cycle_graph(4))
        e = identity(g)
        assert add_recurrent(e, e).values == e.values

    def test_graph_mismatch(self):
        a = identity(cone(k2()))
        b = identity(cone(cycle_graph(3)))
        with pytest.raises(GraphMismatch):
            add_recurrent(a, b)
        with pytest.raises(GraphMismatch, match="belong to a different graph"):
            sandpile_group(cone(k2())).add(b, b)

    def test_non_recurrent_sum_refused(self):
        g = cone(k2())
        zero = RecurrentConfig(g, (0, 0), "input")
        with pytest.raises(ValueError, match="is not recurrent"):
            sandpile_group(g).add(zero, zero)


class TestRepresentative:
    def test_class_of_zero_is_identity(self):
        g = cone(cycle_graph(5))
        assert recurrent_representative(g, (0, 0, 0, 0, 0)).values == identity(g).values

    def test_recurrent_is_its_own_representative(self, monkeypatch):
        # It passes the burning test and is returned as it stands: no lift
        # and no stabilization run.
        from sandpiles import dynamics

        graphs = [cone(hypercube(2)), cone(cycle_graph(5)), thick_k2_cone(3, 5),
                  cone(hypercube(2), 3)]
        orbits = [sandpile_group(g).recurrents() for g in graphs]
        monkeypatch.setattr(dynamics, "stabilize", None)
        for g, orbit in zip(graphs, orbits):
            for c in orbit:
                rc = recurrent_representative(g, c)
                assert rc.values == c and rc.certificate == "burning"

    def test_fewest_recurrent_chips_is_the_inner_edge_count(self):
        # Every recurrent configuration of an undirected graph holds at least
        # |E(G - s)| chips, and the minimal ones hold exactly that many: the
        # bound below which representative skips the burning test is tight.
        rng = random.Random(23)
        graphs = [cone(hypercube(2)), cone(cycle_graph(5)), cone(hypercube(2), 3),
                  contracted_square(), *(random_sinked_graph(rng, rng.randint(2, 6))
                                         for _ in range(12))]
        for g in graphs:
            inner = (sum(g.out_degrees) - sum(g.sink_mult)) // 2
            assert min(map(sum, sandpile_group(g).recurrents())) == inner

    @pytest.mark.parametrize("graph", [lambda: cone(hypercube(2)), lambda: cone(cycle_graph(5)),
                                       contracted_square, lambda: thick_k2_cone(2, 3)],
                             ids=["cone_q2", "cone_c5", "contracted_square", "thick_k2_digraph"])
    def test_every_stable_input(self, graph):
        # A stable input comes back as it stands exactly when it is
        # recurrent; otherwise its representative is the recurrent one of its
        # class.  Both carry the burning certificate.
        group = SandpileGroup(graph())
        for c in all_stable_configs(group.graph.out_degrees):
            rc = group.representative(c)
            assert rc.certificate == "burning"
            assert (rc.values == tuple(c)) == group.is_recurrent(c)
            assert group.is_recurrent(rc.values) and group.congruent(rc.values, c)

    def test_zero_is_lifted_without_burning(self, monkeypatch):
        burned = []
        real = SandpileGroup.is_recurrent

        def spy(self, values):
            burned.append(tuple(values))
            return real(self, values)

        monkeypatch.setattr(SandpileGroup, "is_recurrent", spy)
        e = SandpileGroup(cone(hypercube(3))).identity
        # Only the lifted result is burned, never the zero vector.
        assert burned == [e.values] and e.values == (3,) * 8
        # Digraphs keep the burning test before the lift.
        burned.clear()
        SandpileGroup(thick_k2_cone(2, 3)).identity
        assert burned[0] == (0, 0)

    def test_triple_cone_zero_class(self):
        g = cone(hypercube(1), 3)
        assert recurrent_representative(g, (0, 0)).values == (3, 3)

    def test_negative_entries(self):
        g = cone(hypercube(2))
        group = sandpile_group(g)
        rc = group.representative((-7, 3, 0, -2))
        assert group.congruent(rc.values, (-7, 3, 0, -2))
        assert group.is_recurrent(rc.values)

    def test_zero_sink_multiplicity_vertex(self):
        # path a - b - s: only b touches the sink
        g = SinkedGraph(
            build_multigraph(["a", "b", "s"], [("a", "b", 1), ("b", "s", 1)]), "s"
        )
        group = sandpile_group(g)
        rc = group.representative((-5, 0))
        assert group.congruent(rc.values, (-5, 0))

    def test_digraph_representative(self):
        g = thick_k2_cone(2, 3)
        group = sandpile_group(g)
        rc = group.representative((0, 0))
        assert rc.values == group.identity.values
        rc2 = group.representative((7, -5))
        assert group.congruent(rc2.values, (7, -5))

    def test_disconnected_raises(self):
        g = build_multigraph(["a", "b", "c"], [("a", "b", 1)])
        with pytest.raises(SingularReducedLaplacian):
            recurrent_representative(SinkedGraph(g, "a"), (0, 0))
        # Stable nonnegative vectors are refused too, not burned and returned.
        g = SinkedGraph(
            build_multigraph(["a", "b", "c", "s"], [("a", "b", 1), ("c", "s", 1)]), "s"
        )
        for c in all_stable_configs(g.out_degrees):
            with pytest.raises(SingularReducedLaplacian):
                recurrent_representative(g, c)

    def test_disconnected_refused_by_every_lattice_query(self):
        g = build_multigraph(["a", "b", "c"], [("a", "b", 1)])
        group = SandpileGroup(SinkedGraph(g, "a"))
        for query in (
            lambda: group.congruent((0, 0), (1, 0)),
            lambda: group.in_image((0, 0)),
        ):
            with pytest.raises(SingularReducedLaplacian):
                query()

    def test_corrupted_firing_vector_is_caught(self, monkeypatch):
        from sandpiles import dynamics

        group = SandpileGroup(cone(cycle_graph(5)))
        group.identity  # computes the lift before stabilize is corrupted
        real = dynamics.stabilize

        def wrong_firings(graph, values):
            stable, firings = real(graph, values)
            return stable, (firings[0] + 1,) + firings[1:]

        monkeypatch.setattr(dynamics, "stabilize", wrong_firings)
        with pytest.raises(ValidationFailed, match="firing vector"):
            group.representative((3, -2, 0, 1, 4))

    def test_unstabilized_result_fails_the_burning_test(self, monkeypatch):
        # Returning the input with no firings is consistent with L^T y, so
        # only the burning test can refuse it.
        from sandpiles import dynamics

        group = SandpileGroup(cone(cycle_graph(5)))
        group.identity
        monkeypatch.setattr(dynamics, "stabilize", lambda g, v: (tuple(v), (0,) * len(v)))
        with pytest.raises(ValidationFailed, match="burning test"):
            group.representative((3, -2, 0, 1, 4))


def _vectors(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    """The zero vector, a small random one, one with every entry <= -10^4
    and one of zeros and +-10^4."""
    return [
        (0,) * n,
        tuple(rng.randint(-9, 9) for _ in range(n)),
        tuple(rng.randint(-2 * 10**4, -10**4) for _ in range(n)),
        tuple(rng.choice((-10**4, 0, 10**4)) for _ in range(n)),
    ]


def _agrees_with_lattice(group: SandpileGroup, x) -> bool:
    """The representative is recurrent and congruent to x by the LU route;
    the recurrent in a class being unique, this pins it down."""
    rc = group.representative(x)
    return is_recurrent_burning(group.graph, rc.values)[0] and group.congruent(rc.values, x)


class TestRepresentativeAgainstLattice:
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_cube_cones(self, d, n):
        group = SandpileGroup(cone(hypercube(d), n))
        rng = random.Random(100 * d + n)
        for x in _vectors(rng, 1 << d):
            assert _agrees_with_lattice(group, x)
        if n == 1:
            assert group.identity.values == (d,) * (1 << d)

    @pytest.mark.parametrize("kind", ["graph", "digraph"])
    def test_random_graphs(self, kind):
        rng = random.Random(77)
        for _ in range(30):
            if kind == "graph":
                g = random_sinked_graph(rng, rng.randint(2, 7))
            else:
                g = random_sinked_digraph(rng, rng.randint(1, 6))
            group = SandpileGroup(g)
            for x in _vectors(rng, g.n_nonsink):
                assert _agrees_with_lattice(group, x)
            assert group.identity.values == group.representative((0,) * g.n_nonsink).values


class TestLift:
    """The lift behind representatives: L^T 1 with the firing vector 1 when
    that is >= 1 everywhere, as on every cone, else Le Borgne-Rossin's.  The
    recurrent representative is unique, so both give the same answers."""

    @staticmethod
    def _agrees_with_le_borgne_rossin(g: SinkedGraph, rng: random.Random) -> SandpileGroup:
        group = SandpileGroup(g)
        zero = (0,) * g.n_nonsink
        assert group.identity.values == representative_by_le_borgne_rossin(g, zero)
        for _ in range(4):
            x = tuple(rng.randint(-20, 20) for _ in range(g.n_nonsink))
            assert group.representative(x).values == representative_by_le_borgne_rossin(g, x)
        return group

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_cube_cones_fire_every_vertex_once(self, d, n):
        group = self._agrees_with_le_borgne_rossin(cone(hypercube(d), n), random.Random(d))
        assert group._lift == ((n,) * (1 << d), (1,) * (1 << d))

    def test_random_multigraph_cones_fire_every_vertex_once(self):
        rng = random.Random(41)
        for _ in range(20):
            n = rng.randint(1, 4)
            g = cone(random_connected_multigraph(rng, rng.randint(1, 7), max_mult=3), n)
            group = self._agrees_with_le_borgne_rossin(g, rng)
            assert group._lift == ((n,) * g.n_nonsink, (1,) * g.n_nonsink)

    @pytest.mark.parametrize("graph", [lambda: wired_grid(5), lambda: thick_k2_cone(3, 1),
                                       lambda: thick_k2_cone(2, 5)],
                             ids=["wired_grid5", "thick3-1", "thick2-5"])
    def test_graphs_without_a_positive_firing_take_le_borgne_rossin(self, graph):
        g = graph()
        group = self._agrees_with_le_borgne_rossin(g, random.Random(7))
        assert group._lift == lift_by_le_borgne_rossin(g)

    def test_random_digraphs(self):
        rng = random.Random(43)
        for _ in range(20):
            g = random_sinked_digraph(rng, rng.randint(1, 6))
            group = self._agrees_with_le_borgne_rossin(g, rng)
            b, f = group._lift
            assert min(b) >= 1 and tuple(g.fire(f)) == b


class TestLargeIdentities:
    """The identity by stabilization alone, where a dense LU of L^T would not
    finish: certified by the sparse product and the burning test, and checked
    idempotent under the group law."""

    @pytest.mark.parametrize("graph", [lambda: grid_cone(100), lambda: wired_grid(32)],
                             ids=["grid_cone100", "wired_grid32"])
    def test_identity_within_cap(self, factorizations, graph):
        g = graph()
        start = time.perf_counter()
        e = SandpileGroup(g).identity
        assert time.perf_counter() - start < 15
        assert is_recurrent_burning(g, e.values)[0]
        assert stabilize(g, [2 * x for x in e.values])[0] == e.values
        assert factorizations == []


class TestElementOrder:
    def test_identity_order_one(self):
        g = cone(cycle_graph(5))
        assert element_order(identity(g)) == 1

    def test_contracted_square_generators(self):
        g = contracted_square()
        assert element_order(RecurrentConfig(g, (2, 1, 2, 3), "burning")) == 2
        assert element_order(RecurrentConfig(g, (1, 2, 2, 3), "burning")) == 48

    def test_non_minimal_order_is_caught(self, monkeypatch):
        group = SandpileGroup(contracted_square())
        monkeypatch.setattr(group, "in_image", lambda v: (0,) * len(v))
        with pytest.raises(ValidationFailed):
            group.element_order((1, 2, 2, 3))

    def test_doubled_order_fails_the_gcd_check(self, monkeypatch):
        # The witness for 96 (c - e) is genuine, but all its entries are even.
        group = SandpileGroup(contracted_square())
        order = group.solver.class_order
        monkeypatch.setattr(group.solver, "class_order", lambda x: 2 * order(x))
        with pytest.raises(ValidationFailed, match="order 96 is not minimal: 48"):
            group.element_order((1, 2, 2, 3))

    def test_short_order_fails_the_solve(self, monkeypatch):
        # 24 (c - e) is outside Im L^T, since c - e has order 48.
        group = SandpileGroup(contracted_square())
        order = group.solver.class_order
        monkeypatch.setattr(group.solver, "class_order", lambda x: order(x) // 2)
        with pytest.raises(ValidationFailed, match="24 times .* is not in Im L"):
            group.element_order((1, 2, 2, 3))

    def test_orders_divide_group_order(self):
        g = cone(hypercube(2))
        group = sandpile_group(g)
        for c in group.recurrents():
            assert group.order % group.element_order(c) == 0


@pytest.fixture
def factorizations(monkeypatch) -> list[int]:
    """Sizes of the matrices factored by LatticeSolver, in call order."""
    calls = []
    build = LatticeSolver.__init__

    def counted(self, a):
        calls.append(a.rows)
        build(self, a)

    monkeypatch.setattr(LatticeSolver, "__init__", counted)
    return calls


class TestOneFactorization:
    def test_determinant_against_permutation_expansion(self):
        rng = random.Random(23)
        for _ in range(20):
            for g in (random_sinked_graph(rng, rng.randint(2, 6)),
                      random_sinked_digraph(rng, rng.randint(1, 5))):
                group = SandpileGroup(g)
                assert group.determinant == det_by_permutation_expansion(
                    reduced_laplacian(g)
                )

    def test_determinant_sign_survives_row_swaps(self, monkeypatch):
        # Reduced Laplacians never need a row swap; this matrix does, and
        # its determinant is negative.  cone(C_3) has 3 non-sink vertices,
        # so it is no Cayley cone of Z_2^d and its group takes the LU, built
        # from the matrix that intlinalg.reduced_laplacian returns.
        group = SandpileGroup(cone(cycle_graph(3)))
        a = IntMatrix.from_rows([[0, 2, 1], [1, 0, 0], [0, 1, 3]])
        monkeypatch.setattr("sandpiles.intlinalg.reduced_laplacian", lambda g: a)
        assert group.determinant == det_by_permutation_expansion(a) == -5

    def test_singular_determinant_is_zero(self):
        g = build_multigraph(["a", "b", "c"], [("a", "b", 1)])
        group = SandpileGroup(SinkedGraph(g, "a"))
        assert group.determinant == 0
        with pytest.raises(SingularReducedLaplacian):
            group.order

    @pytest.mark.parametrize(
        "query",
        ["identity", "representative", "element_order", "structure", "structure then identity"],
    )
    def test_cold_query_factors_once(self, factorizations, query):
        # The group law never factors L; lattice queries factor it once, and
        # never on a Cayley cone of Z_2^d such as cone(Q_3), whose queries
        # are transforms.  cone(C_7) is no Cayley cone, so it takes the LU.
        for graph, structure, lu in ((cone(hypercube(3)), (15, 15, 105), []),
                                     (cone(cycle_graph(7)), (29, 29), [7])):
            factorizations.clear()
            group = SandpileGroup(graph)
            n = graph.n_nonsink
            if query == "identity":
                group.identity
            elif query == "representative":
                group.representative((-10**4, 3) + (0,) * (n - 3) + (7,))
            elif query == "element_order":
                group.element_order(group.representative((1,) + (0,) * (n - 1)))
            else:
                assert group.structure.invariant_factors == structure
                if query == "structure then identity":
                    group.identity
            assert factorizations == ([] if query in ("identity", "representative") else lu)

    def test_singular_laplacian_is_factored_once(self, factorizations):
        g = build_multigraph(["a", "b", "c"], [("a", "b", 1)])
        group = SandpileGroup(SinkedGraph(g, "a"))
        for _ in range(3):
            with pytest.raises(SingularReducedLaplacian):
                group.congruent((0, 0), (1, 0))
        with pytest.raises(SingularReducedLaplacian):
            group.structure
        assert factorizations == [2]


def test_group_cache_evicts_oldest(monkeypatch):
    from sandpiles import dynamics

    monkeypatch.setattr(dynamics, "_group_cache", {})
    monkeypatch.setattr(dynamics, "_GROUP_CACHE_CAP", 2)
    graphs = [cone(cycle_graph(k)) for k in (3, 4, 5)]
    groups = [sandpile_group(g) for g in graphs]
    assert list(dynamics._group_cache) == graphs[1:]
    assert sandpile_group(graphs[2]) is groups[2]
    assert sandpile_group(graphs[0]) is not groups[0]
    assert list(dynamics._group_cache) == [graphs[2], graphs[0]]


class TestEntriesAreTakenAsGiven:
    """Entries are Python ints; no entry point converts them with int(), so an
    int that refuses int() gives the answers its plain value gives."""

    def test_stabilize(self):
        g = cone(k2())
        assert stabilize(g, unconverted([3, 2])) == stabilize(g, [3, 2]) == ((1, 0), (2, 2))

    def test_stabilize_on_the_ladder(self, ladder_calls):
        g = wired_grid(16)
        c = _centre_pile(16, 2**13)
        assert stabilize(g, unconverted(c)) == _kernel(g, c)
        assert ladder_calls == [16 * 16]

    def test_group_queries(self):
        g = contracted_square()
        group = sandpile_group(g)
        c, x = (1, 2, 2, 3), (-7, 40, 3, 0)
        assert group.is_recurrent(unconverted(c)) and not group.is_recurrent(unconverted([0] * 4))
        assert group.representative(unconverted(c)).values == c
        assert group.representative(unconverted(x)) == group.representative(x)
        assert group.congruent(unconverted(x), unconverted(group.representative(x).values))
        assert not group.congruent(unconverted(c), unconverted(group.identity.values))
        assert group.element_order(unconverted(c)) == group.element_order(c) == 48


class TestCongruent:
    def test_reflexive(self):
        g = cone(k2())
        assert congruent(g, (1, 0), (1, 0))

    def test_stabilization_preserves_class(self):
        rng = random.Random(41)
        for _ in range(20):
            g = random_sinked_graph(rng, rng.randint(2, 5))
            if sandpile_group(g).determinant == 0:
                continue
            c = tuple(rng.randint(0, 3 * d) for d in g.out_degrees)
            stable, _ = stabilize(g, c)
            assert congruent(g, c, stable)

    def test_distinct_generators(self):
        g = cone(k2())
        assert not congruent(g, (1, 0), (0, 1))


class TestGroupAxioms:
    @pytest.mark.parametrize(
        "graph",
        [
            cone(k2()),
            cone(cycle_graph(4)),
            cone(hypercube(2)),
            thick_k2_cone(2, 3),
            thick_k2_cone(3, 3),
            cone(hypercube(0), 4),
        ],
        ids=["triangle", "wheel4", "cube2", "thick23", "thick33", "point4"],
    )
    def test_enumerated_group_axioms(self, graph):
        group = sandpile_group(graph)
        recs = sorted(group.recurrents())
        assert len(recs) <= 200
        e = group.identity.values
        add = group.add_values
        rng = random.Random(13)
        # closure and commutativity on all pairs
        for a in recs:
            for b in recs:
                s = add(a, b)
                assert s in group.recurrents()
                assert s == add(b, a)
        # identity and inverses
        for a in recs:
            assert add(a, e) == a
            assert any(add(a, b) == e for b in recs)
        # associativity on sampled triples
        for _ in range(60):
            a, b, c = (recs[rng.randrange(len(recs))] for _ in range(3))
            assert add(add(a, b), c) == add(a, add(b, c))

    def test_addition_matches_cokernel_sum(self):
        g = cone(hypercube(2))
        group = sandpile_group(g)
        recs = sorted(group.recurrents())
        rng = random.Random(7)
        for _ in range(80):
            a = recs[rng.randrange(len(recs))]
            b = recs[rng.randrange(len(recs))]
            s = group.add_values(a, b)
            assert group.congruent(s, tuple(x + y for x, y in zip(a, b)))


class TestPointCones:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_point_cone_group_is_cyclic(self, n):
        g = cone(hypercube(0), n)
        group = sandpile_group(g)
        assert group.recurrents() == {(i,) for i in range(n)}
        assert group.structure.order == n
        for i in range(n):
            for j in range(n):
                assert group.add_values((i,), (j,)) == ((i + j) % n,)


class TestThickPairCones:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_recurrent_set_shape(self, r):
        orbit = recurrent_orbit(thick_k2_cone(r, r))
        expected = {
            (m, l)
            for m in range(r + 1)
            for l in range(r + 1)
            if m == r or l == r
        }
        assert orbit == expected
        assert len(orbit) == 2 * r + 1

    @pytest.mark.parametrize("r,t", [(1, 1), (2, 2), (2, 3), (3, 1), (4, 2)])
    def test_group_is_cyclic_of_order_r_plus_t_plus_one(self, r, t):
        group = sandpile_group(thick_k2_cone(r, t))
        assert group.structure.invariant_factors == (r + t + 1,)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_generator_and_identity(self, r):
        group = sandpile_group(thick_k2_cone(r, r))
        assert group.identity.values == (r, r)
        assert group.element_order((r, 0)) == 2 * r + 1
