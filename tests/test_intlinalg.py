from __future__ import annotations

import random
import time
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import contracted_square, random_connected_multigraph, random_sinked_graph
from oracles import (
    det_by_permutation_expansion,
    factor_by_trial_division,
    matmul,
    membership_by_rational_solve,
    smith_diagonal_by_minors,
    spanning_tree_count,
)
import sandpiles.intlinalg as intlinalg
from sandpiles.cubes import parity_collapse_hom, verify_decomposition
from sandpiles.dynamics import SandpileGroup, sandpile_group
from sandpiles.errors import InfiniteCokernel, OutOfRange, ValidationFailed
from sandpiles.graphs import (
    SinkedGraph,
    build_multigraph,
    cone,
    cycle_graph,
    hypercube,
    k2,
    thick_k2_cone,
    to_sink_digraph,
)
from sandpiles.intlinalg import (
    GroupStructure,
    IntMatrix,
    LatticeSolver,
    SmithDecomposition,
    _factorize,
    cokernel_diagonal,
    determinant,
    elementary_divisors_of,
    invariant_factors,
    laplacian,
    reduced_laplacian,
    smith_normal_form,
)
from sandpiles.morphisms import verify_group_injection

matrices = st.integers(1, 8).flatmap(
    lambda n: st.integers(1, 8).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-9, 9), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
).map(IntMatrix.from_rows)

# Square of rank k < n: the product of n x k and k x n factors.
singular_square_matrices = st.integers(1, 7).flatmap(
    lambda n: st.integers(0, n - 1).flatmap(
        lambda k: st.tuples(
            st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k), min_size=n, max_size=n),
            st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=k, max_size=k),
        )
    )
).map(
    lambda xy: IntMatrix.from_rows(
        [[sum(x * y[j] for x, y in zip(row, xy[1])) for j in range(len(xy[0]))] for row in xy[0]]
    )
)

# Mostly zeros, with a zero leading entry: the factorization of A^T must
# swap rows before its first step.
sparse_square_matrices = st.integers(2, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from([0, 0, 0, -3, -2, -1, 1, 2, 3, 5]), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
).map(lambda rows: IntMatrix.from_rows([[0] + rows[0][1:]] + rows[1:]))

# Mostly +-1: unit steps of the LU eliminate most rows.
unit_rich_matrices = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from([0, 1, -1, 1, -1, 2, -3]), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
).map(IntMatrix.from_rows)

# No entry is +-1: every step of the LU is a Bareiss step.
unit_free_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from([0, 0, 2, -2, 3, -3, 4, 5, -7]), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
).map(IntMatrix.from_rows)


@st.composite
def permuted_unit_triangular(draw) -> IntMatrix:
    """P U Q with U upper triangular, +-1 on its diagonal: unit steps pivot
    every row and leave no Bareiss step."""
    n = draw(st.integers(1, 6))
    rows = [
        [
            draw(st.sampled_from([1, -1])) if j == i else
            draw(st.integers(-4, 4)) if j > i else 0
            for j in range(n)
        ]
        for i in range(n)
    ]
    p = draw(st.permutations(range(n)))
    q = draw(st.permutations(range(n)))
    return IntMatrix.from_rows([[rows[p[i]][q[j]] for j in range(n)] for i in range(n)])


square_matrices = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
).map(IntMatrix.from_rows)


class TestLaplacian:
    def test_single_edge(self):
        assert laplacian(k2()).entries == ((1, -1), (-1, 1))

    def test_triangle_diagonal(self):
        lap = laplacian(cone(k2()))
        assert lap.diagonal() == (2, 2, 2)
        assert all(sum(row) == 0 for row in lap.entries)

    def test_thick_digraph_block(self):
        lap = laplacian(thick_k2_cone(2, 3))
        assert lap.entries == ((3, -2, -1), (-3, 4, -1), (0, 0, 0))

    def test_row_sums_zero_for_digraphs(self):
        g = to_sink_digraph(cone(cycle_graph(4)).graph, "s")
        assert all(sum(row) == 0 for row in laplacian(g).entries)


class TestReducedLaplacian:
    def test_cone_of_edge(self):
        g = cone(hypercube(1))
        lap = reduced_laplacian(g)
        assert lap.entries == ((2, -1), (-1, 2))
        assert determinant(lap) == 3

    def test_cone_of_pentagon(self):
        assert determinant(reduced_laplacian(cone(cycle_graph(5)))) == 121

    def test_cone_of_square(self):
        assert determinant(reduced_laplacian(cone(hypercube(2)))) == 45


class TestSmithNormalForm:
    def test_two_by_two(self):
        dec = smith_normal_form(IntMatrix.from_rows([[2, -1], [-1, 2]]))
        assert dec.diagonal() == (1, 3)

    def test_identity(self):
        dec = smith_normal_form(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert dec.diagonal() == (1, 1, 1)

    def test_zero(self):
        dec = smith_normal_form(IntMatrix.from_rows([[0, 0], [0, 0]]))
        assert dec.diagonal() == (0, 0)

    def test_rectangular(self):
        a = IntMatrix.from_rows([[2, 4, 4]])
        dec = smith_normal_form(a)
        assert dec.diagonal() == (2,)
        assert matmul(matmul(dec.u, a), dec.v) == dec.d

    @given(matrices)
    @settings(max_examples=120, deadline=None)
    def test_postconditions(self, a):
        dec = smith_normal_form(a)
        assert matmul(matmul(dec.u, a), dec.v) == dec.d
        assert abs(determinant(dec.u)) == 1
        assert abs(determinant(dec.v)) == 1
        diag = dec.diagonal()
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            if x == 0:
                assert y == 0
            else:
                assert y % x == 0
        for i in range(dec.d.rows):
            for j in range(dec.d.cols):
                if i != j:
                    assert dec.d.entries[i][j] == 0

    def test_deterministic(self):
        a = IntMatrix.from_rows([[6, 4, 2], [2, 8, 4], [4, 2, 6]])
        assert smith_normal_form(a) == smith_normal_form(a)

    @given(st.one_of(matrices, singular_square_matrices))
    @settings(max_examples=150, deadline=None)
    def test_against_minors_oracle(self, a):
        expected = smith_diagonal_by_minors(a)
        assert smith_normal_form(a).diagonal() == expected
        if a.is_square() and 0 in expected:
            with pytest.raises(InfiniteCokernel) as err:
                LatticeSolver(a)
            assert err.value.free_rank == expected.count(0)


class TestDeterminant:
    def test_triple_cone_of_edge(self):
        assert determinant(reduced_laplacian(cone(hypercube(1), 3))) == 15

    def test_singular(self):
        assert determinant(IntMatrix.from_rows([[1, 2], [2, 4]])) == 0

    @given(square_matrices)
    @settings(max_examples=80, deadline=None)
    def test_against_permutation_expansion(self, a):
        if a.rows <= 4:
            assert determinant(a) == det_by_permutation_expansion(a)

    def test_matrix_tree(self):
        rng = random.Random(11)
        for _ in range(15):
            g = random_connected_multigraph(rng, rng.randint(2, 5), max_mult=2)
            if sum(m for _, _, m in g.edges()) > 10:
                continue
            trees = spanning_tree_count(g)
            for sink in g.vertices:
                lap = reduced_laplacian(SinkedGraph(g, sink))
                assert determinant(lap) == trees


def _spy_passes(monkeypatch) -> list[tuple[int, int]]:
    """Record the rows and the modulus of every cokernel_diagonal call."""
    passes = []
    diagonal = intlinalg.cokernel_diagonal

    def recorded(b, modulus):
        passes.append((b.rows, modulus))
        return diagonal(b, modulus)

    monkeypatch.setattr(intlinalg, "cokernel_diagonal", recorded)
    return passes


def _spy_class_orders(monkeypatch) -> list:
    """Record the vector of every class_order call."""
    probed = []
    class_order = LatticeSolver.class_order

    def recorded(self, x):
        probed.append(x)
        return class_order(self, x)

    monkeypatch.setattr(LatticeSolver, "class_order", recorded)
    return probed


def _probe_exponent(solver: LatticeSolver) -> int:
    probes = intlinalg._probe_vectors(solver.b.rows)
    return lcm(solver.class_order(next(probes)), solver.class_order(next(probes)))


class TestInvariantFactors:
    def test_prism_cone(self):
        from sandpiles.graphs import cartesian_product

        g = cone(cartesian_product(cycle_graph(5), k2()))
        structure = invariant_factors(reduced_laplacian(g))
        assert structure.invariant_factors == (319, 957)
        assert structure.order == 319 * 957

    def test_square_cone(self):
        structure = invariant_factors(reduced_laplacian(cone(hypercube(2))))
        assert structure.invariant_factors == (3, 15)
        assert structure.elementary_divisors == (3, 3, 5)

    def test_contracted_square(self):
        structure = invariant_factors(reduced_laplacian(contracted_square()))
        assert structure.invariant_factors == (2, 48)

    def test_infinite_cokernel(self):
        with pytest.raises(InfiniteCokernel) as err:
            invariant_factors(IntMatrix.from_rows([[1, 2], [2, 4]]))
        assert err.value.free_rank == 1

    def test_trivial_group(self):
        structure = invariant_factors(IntMatrix.from_rows([[1, 0], [4, 1]]))
        assert structure.invariant_factors == ()
        assert structure.order == 1

    def test_wrong_diagonal_is_caught(self, monkeypatch):
        from sandpiles import intlinalg

        monkeypatch.setattr(intlinalg, "cokernel_diagonal", lambda a, modulus: (1, 1, 1, 5))
        with pytest.raises(ValidationFailed):
            invariant_factors(reduced_laplacian(cone(hypercube(2))))

    @pytest.mark.parametrize("d", range(1, 8))
    def test_exponent_modulus_gives_the_det_modulus_diagonal(self, d):
        a = reduced_laplacian(cone(hypercube(d)))
        solver = LatticeSolver(a)
        exponent = invariant_factors(solver).invariant_factors[-1]
        assert cokernel_diagonal(a, exponent) == cokernel_diagonal(a, abs(solver.determinant))

    def test_exponent_modulus_on_random_graphs(self):
        rng = random.Random(31)
        for _ in range(30):
            a = reduced_laplacian(random_sinked_graph(rng, rng.randint(2, 14), max_mult=3))
            if determinant(a) == 0:
                continue
            structure = invariant_factors(a)
            exponent = structure.invariant_factors[-1] if structure.invariant_factors else 1
            assert cokernel_diagonal(a, exponent) == cokernel_diagonal(a, structure.order)

    def test_short_modulus_is_rescued(self, monkeypatch):
        a = reduced_laplacian(cone(hypercube(3)))
        expected = invariant_factors(a)
        passes = _spy_passes(monkeypatch)
        # 3 divides the exponent 105 but is no multiple of it: G/3G = Z_3^3
        # falls short of |det| = 23625 by 875, and 3 * 875 is a multiple.
        monkeypatch.setattr(LatticeSolver, "class_order", lambda self, x: 3)
        assert invariant_factors(a) == expected
        assert [m for _, m in passes] == [3, 3 * 875]

    def test_corrupted_rescue_is_caught(self, monkeypatch):
        a = reduced_laplacian(cone(hypercube(3)))
        diagonal = intlinalg.cokernel_diagonal
        first = []

        def repeat_first(b, modulus):
            if not first:
                first.append(diagonal(b, modulus))
            return first[0]

        monkeypatch.setattr(intlinalg, "cokernel_diagonal", repeat_first)
        monkeypatch.setattr(LatticeSolver, "class_order", lambda self, x: 3)
        with pytest.raises(ValidationFailed):
            invariant_factors(a)

    @given(square_matrices)
    @settings(max_examples=80, deadline=None)
    def test_matches_transform_snf(self, a):
        if determinant(a) == 0:
            return
        fast = invariant_factors(a).invariant_factors
        slow = tuple(d for d in smith_diagonal_by_minors(a) if d != 1)
        assert fast == slow

    def test_sink_independence(self):
        rng = random.Random(23)
        graphs = [cycle_graph(5), contracted_square().graph]
        graphs += [random_connected_multigraph(rng, rng.randint(3, 7)) for _ in range(6)]
        for g in graphs:
            seen = {
                invariant_factors(reduced_laplacian(SinkedGraph(g, sink))).invariant_factors
                for sink in g.vertices
            }
            assert len(seen) == 1


class TestCoreDiagonal:
    """invariant_factors eliminates only the core that the LU's unit steps
    leave, modulo the smaller of E and |det|/E; the reference is the Smith
    diagonal of the whole matrix."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("d", range(1, 9))
    def test_cube_cones(self, d, n, monkeypatch):
        a = reduced_laplacian(cone(hypercube(d), n))
        solver = LatticeSolver(a)
        order = abs(solver.determinant)
        passes = _spy_passes(monkeypatch)
        factors = invariant_factors(solver).invariant_factors
        monkeypatch.undo()
        # Only the core is eliminated: half the rows at every d.
        assert {rows for rows, _ in passes} <= {a.rows // 2}
        # At d = 8 a modulus-|det| pass on the 256 rows takes seconds, so the
        # reference is taken modulo the exponent, which presents the same
        # diagonal (cokernel_diagonal).
        reference = cokernel_diagonal(a, order if d < 8 else factors[-1])
        assert factors == tuple(x for x in reference if x != 1)
        if d >= 3:
            # Not the r route: the first pass is modulo E (at d = 8, n = 2
            # the probes miss a factor 6 of the exponent, so a rescue follows).
            e = _probe_exponent(solver)
            assert e * e <= order
            assert passes[0][1] == e

    @pytest.mark.parametrize("kind", ["unit-rich", "empty core"])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_unit_rich_matrices(self, kind, data):
        a = data.draw({"unit-rich": unit_rich_matrices,
                       "empty core": permuted_unit_triangular()}[kind])
        if determinant(a) == 0:
            with pytest.raises(InfiniteCokernel):
                invariant_factors(a)
            return
        solver = LatticeSolver(a)
        if kind == "empty core":
            assert solver.core().rows == 0
        reference = cokernel_diagonal(a, abs(solver.determinant))
        assert invariant_factors(solver).invariant_factors == tuple(
            x for x in reference if x != 1
        )

    def test_nearly_cyclic_random_graphs(self, monkeypatch):
        rng = random.Random(7)
        routes = set()
        for n in (30 + 50 * i // 29 for i in range(30)):
            a = reduced_laplacian(random_sinked_graph(rng, n))
            solver = LatticeSolver(a)
            order = abs(solver.determinant)
            e = _probe_exponent(solver)
            passes = _spy_passes(monkeypatch)
            probed = _spy_class_orders(monkeypatch)
            factors = invariant_factors(solver).invariant_factors
            monkeypatch.undo()
            reference = cokernel_diagonal(a, order)
            assert factors == tuple(x for x in reference if x != 1)
            assert len(probed) == 2
            if e == order:
                routes.add("cyclic")
                assert passes == []
            else:
                # One pass modulo r, also where the two probes miss part of
                # the exponent: |det| gives the last factor.
                assert e * e > order
                routes.add("r" if e == factors[-1] else "r, short E")
                assert [m for _, m in passes] == [order // e]
        assert routes == {"cyclic", "r", "r, short E"}

    def test_short_exponent_on_the_r_route(self, monkeypatch):
        # Z_2 + Z_48: E = 16 divides 48 and 16^2 > 96 = |det|, so the core,
        # two rows, is eliminated modulo r = 6.  That gives Z_2 + Z_6: the 2
        # is kept, and 96 / 2 = 48 is a multiple of 16 with gcd(48, 6) = 6.
        a = reduced_laplacian(contracted_square())
        passes = _spy_passes(monkeypatch)
        probed = []
        monkeypatch.setattr(LatticeSolver, "class_order", lambda self, x: probed.append(x) or 16)
        assert invariant_factors(a).invariant_factors == (2, 48)
        assert passes == [(2, 6)]
        assert len(probed) == 2

    def test_wrong_last_order_on_the_r_route_is_caught(self, monkeypatch):
        # The pass modulo 6 gives (2, 6); a last order of 3 does not
        # fit gcd(96 / 2, 6) = 6.
        a = reduced_laplacian(contracted_square())
        diagonal = intlinalg.cokernel_diagonal
        monkeypatch.setattr(
            intlinalg, "cokernel_diagonal", lambda b, modulus: diagonal(b, modulus)[:-1] + (3,)
        )
        monkeypatch.setattr(LatticeSolver, "class_order", lambda self, x: 16)
        with pytest.raises(ValidationFailed):
            invariant_factors(a)

    def test_random_graph_at_150_vertices(self, monkeypatch):
        # The envelope: the structure of a 150-vertex random multigraph, LU
        # included.  Its group is Z_2 + Z_N with N of 1067 bits, so one pass
        # modulo |det| alone would take about 20 s; the r route takes one
        # pass modulo r = 2 after two class orders.
        passes = _spy_passes(monkeypatch)
        probed = _spy_class_orders(monkeypatch)
        start = time.perf_counter()
        structure = SandpileGroup(random_sinked_graph(random.Random(150), 150)).structure
        assert time.perf_counter() - start < 10
        assert [x.bit_length() for x in structure.invariant_factors] == [2, 1067]
        assert [m for _, m in passes] == [2] and len(probed) == 2


class TestElementaryDivisorsOnRead:
    @pytest.fixture
    def no_factoring(self, monkeypatch):
        def refuse(n):
            raise RuntimeError(f"factored {n}")

        monkeypatch.setattr(intlinalg, "_factorize", refuse)

    def test_computed_when_first_read(self):
        structure = invariant_factors(reduced_laplacian(cone(hypercube(2))))
        assert "elementary_divisors" not in vars(structure)
        assert structure.elementary_divisors == (3, 3, 5)
        assert "elementary_divisors" in vars(structure)

    def test_decomposition_reads_only_the_exponent(self, no_factoring):
        assert verify_decomposition(4).passed

    def test_injection_reads_only_the_exponent(self, no_factoring):
        report = verify_group_injection(parity_collapse_hom(3, (1, 1, 1)))
        assert report.passed and report.image_order == 7

    def test_large_random_graph(self, no_factoring):
        # Its invariant factors have 2 and 198 bits; factoring the larger
        # one is not needed for the chain or the order.
        group = sandpile_group(random_sinked_graph(random.Random(4), 40))
        start = time.perf_counter()
        factors = group.structure.invariant_factors
        assert time.perf_counter() - start < 5
        assert prod(factors) == group.order
        assert all(y % x == 0 for x, y in zip(factors, factors[1:]))


class TestRecords:
    """IntMatrix, SmithDecomposition and GroupStructure are read-only values:
    equal and equally hashed when their fields are, never assigned."""

    def test_equal_by_value(self):
        a, b = IntMatrix.from_rows([[2, -1], [-1, 2]]), IntMatrix(2, 2, ((2, -1), (-1, 2)))
        assert a == b and hash(a) == hash(b) and a is not b
        assert a != IntMatrix.from_rows([[2, -1], [-1, 3]])
        assert smith_normal_form(a) == smith_normal_form(b)
        assert invariant_factors(a) == GroupStructure((3,)) != GroupStructure((4,))
        assert a != (2, 2, ((2, -1), (-1, 2)))
        assert repr(GroupStructure((3,))) == "GroupStructure(invariant_factors=(3,))"

    def test_fields_are_read_only(self):
        a = IntMatrix(1, 1, ((5,),))
        structure = GroupStructure((2, 4))
        for record, field in ((a, "rows"), (structure, "invariant_factors"),
                              (structure, "order")):
            with pytest.raises(AttributeError):
                setattr(record, field, 0)
            with pytest.raises(AttributeError):
                delattr(record, field)
        assert a.rows == 1 and structure.invariant_factors == (2, 4)
        assert structure.order == 8

    def test_constructor_takes_every_field(self):
        with pytest.raises(TypeError):
            GroupStructure()
        with pytest.raises(TypeError):
            SmithDecomposition(IntMatrix(0, 0, ()))


class TestLatticeMembership:
    def test_zero_vector(self):
        a = reduced_laplacian(cone(k2()))
        assert LatticeSolver(a).solve((0, 0)) == (0, 0)

    def test_row_of_transpose(self):
        a = reduced_laplacian(cone(k2()))
        witness = LatticeSolver(a).solve((2, -1))
        assert witness == (1, 0)

    def test_generator_class_has_no_witness(self):
        a = reduced_laplacian(cone(k2()))
        assert LatticeSolver(a).solve((1, 0)) is None

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_image_vectors_have_witnesses(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        g = random_sinked_graph(rng, rng.randint(2, 5))
        a = reduced_laplacian(g)
        if determinant(a) == 0:
            return
        y = [rng.randint(-4, 4) for _ in range(a.rows)]
        v = a.transpose().mul_vector(y)
        witness = LatticeSolver(a).solve(v)
        assert witness is not None
        assert a.transpose().mul_vector(witness) == v

    @given(square_matrices, st.lists(st.integers(-6, 6), min_size=1, max_size=6))
    @settings(max_examples=120, deadline=None)
    def test_against_rational_oracle(self, a, v):
        det = determinant(a)
        if det == 0 or abs(det) > 50:
            return
        v = (v * a.rows)[: a.rows]
        got = LatticeSolver(a).solve(v)
        expected = membership_by_rational_solve(a, v)
        assert (got is not None) == expected
        if got is not None:
            assert a.transpose().mul_vector(got) == tuple(v)


    def test_singular_matrix_refused(self):
        a = IntMatrix.from_rows([[1, 2], [2, 4]])
        with pytest.raises(InfiniteCokernel) as err:
            LatticeSolver(a)
        assert err.value.free_rank == 1
        with pytest.raises(InfiniteCokernel):
            LatticeSolver(a).solve((0, 0))


def _small_determinant(a: IntMatrix) -> bool:
    return 0 < abs(determinant(a)) <= 50


class TestLatticeSolverOracles:
    @given(square_matrices, st.lists(st.integers(-6, 6), min_size=6, max_size=6))
    @settings(max_examples=120, deadline=None)
    def test_class_order_is_least_annihilator(self, a, x):
        if not _small_determinant(a):
            return
        x = x[: a.rows]
        k = LatticeSolver(a).class_order(x)
        assert membership_by_rational_solve(a, [k * v for v in x])
        assert not any(
            membership_by_rational_solve(a, [j * v for v in x]) for j in range(1, k)
        )

    @given(square_matrices, st.data())
    @settings(max_examples=120, deadline=None)
    def test_cokernel_diagonal_of_stacks(self, a, data):
        if not _small_determinant(a):
            return
        extra = data.draw(
            st.lists(
                st.lists(st.integers(-9, 9), min_size=a.cols, max_size=a.cols), max_size=4
            )
        )
        stack = IntMatrix.from_rows([list(r) for r in a.entries] + extra)
        expected = smith_diagonal_by_minors(stack)
        assert cokernel_diagonal(stack, abs(determinant(a))) == expected


class TestFractionFreeLU:
    @given(sparse_square_matrices, st.lists(st.integers(-6, 6), min_size=6, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_pivoting_solver_against_rational_oracle(self, a, x):
        if not _small_determinant(a):
            return
        x = x[: a.rows]
        solver = LatticeSolver(a)
        assert solver.determinant == det_by_permutation_expansion(a)
        got = solver.solve(x)
        assert (got is not None) == membership_by_rational_solve(a, x)
        if got is not None:
            assert a.transpose().mul_vector(got) == tuple(x)
        k = solver.class_order(x)
        assert membership_by_rational_solve(a, [k * v for v in x])
        assert not any(
            membership_by_rational_solve(a, [j * v for v in x]) for j in range(1, k)
        )

    @pytest.mark.parametrize("kind", ["unit-rich", "unit-free", "empty core"])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_phases_against_oracles(self, kind, data):
        strategy = {"unit-rich": unit_rich_matrices, "unit-free": unit_free_matrices,
                    "empty core": permuted_unit_triangular()}[kind]
        a = data.draw(strategy)
        x = data.draw(st.lists(st.integers(-6, 6), min_size=a.rows, max_size=a.rows))
        det = det_by_permutation_expansion(a)
        assert determinant(a) == det
        if det == 0:
            with pytest.raises(InfiniteCokernel) as err:
                LatticeSolver(a)
            assert err.value.free_rank == smith_diagonal_by_minors(a).count(0)
            return
        solver = LatticeSolver(a)
        assert solver.determinant == det
        if kind == "unit-free":
            assert not any(unit for _, _, _, unit, _, _ in solver.steps)
        if kind == "empty core":
            assert all(unit for _, _, _, unit, _, _ in solver.steps)
        got = solver.solve(x)
        assert (got is not None) == membership_by_rational_solve(a, x)
        if got is not None:
            assert a.transpose().mul_vector(got) == tuple(x)
        k = solver.class_order(x)
        assert membership_by_rational_solve(a, [k * v for v in x])
        for p in factor_by_trial_division(k):
            assert not membership_by_rational_solve(a, [k // p * v for v in x])

    def test_singular_after_swaps(self):
        a = IntMatrix.from_rows([[0, 1, 2], [1, 0, 1], [1, 1, 3]])
        assert determinant(a) == 0
        with pytest.raises(InfiniteCokernel):
            LatticeSolver(a)


@pytest.mark.parametrize("make, message", [
    (lambda: IntMatrix(-1, 0, ()), "dimensions must be nonnegative"),
    (lambda: IntMatrix(1, 2, ((1,),)), "entry shape does not match dimensions"),
    (lambda: IntMatrix.from_rows([[1, 2]]).mul_vector((1,)), "dimension mismatch"),
    (lambda: LatticeSolver(IntMatrix.from_rows([[2]])).solve((1, 0)), "dimension mismatch"),
    (lambda: LatticeSolver(IntMatrix.from_rows([[1, 2]])), "lattice solving needs a square"),
    (lambda: determinant(IntMatrix.from_rows([[1, 2]])), "determinant needs a square"),
    (lambda: invariant_factors(IntMatrix.from_rows([[1, 2]])), "invariant factors need a square"),
    (lambda: elementary_divisors_of((3, 0)), "cyclic orders must be positive"),
], ids=["negative-dimension", "entry-shape", "mul-vector", "solve", "solver-not-square",
        "determinant-not-square", "invariant-factors-not-square", "cyclic-order"])
def test_malformed_shapes_are_refused(make, message):
    with pytest.raises(ValueError, match=message):
        make()


class TestFactorize:
    def test_small_against_trial_division(self):
        for n in range(1, 3000):
            assert _factorize(n) == factor_by_trial_division(n)

    @given(st.integers(1, 10**12))
    @settings(max_examples=40, deadline=None)
    def test_against_trial_division(self, n):
        assert _factorize(n) == factor_by_trial_division(n)

    def test_large_against_trial_division(self):
        rng = random.Random(12)
        for _ in range(15):
            n = rng.randint(10**11, 10**12)
            assert _factorize(n) == factor_by_trial_division(n)

    def test_strong_pseudoprimes(self):
        # The least strong pseudoprimes to the first 4, 9 and 12 prime bases.
        assert _factorize(3215031751) == {151: 1, 751: 1, 28351: 1}
        assert _factorize(3825123056546413051) == {149491: 1, 747451: 1, 34233211: 1}
        assert _factorize(318665857834031151167461) == {399165290221: 1, 798330580441: 1}

    def test_products_of_32_bit_primes(self):
        primes = (2147483647, 4294967279, 4294967291)
        for p in primes:
            assert factor_by_trial_division(p) == {p: 1}
        assert _factorize(primes[1] * primes[2]) == {primes[1]: 1, primes[2]: 1}
        assert _factorize(primes[0] ** 2 * primes[2]) == {primes[0]: 2, primes[2]: 1}
        # Above the Miller-Rabin bound, composites are still split by rho.
        assert _factorize(primes[0] ** 3) == {primes[0]: 3}

    def test_probable_prime_above_bound_is_refused(self, monkeypatch):
        # A Miller-Rabin that passes every input stands in for a strong
        # pseudoprime above the bound: it proves nothing, so it is refused.
        monkeypatch.setattr(intlinalg, "_MR_BOUND", 1000)
        monkeypatch.setattr(intlinalg, "_strong_probable_prime", lambda n: True)
        for n in (10007, 1009 * 1013, 43**3, 2 * 3 * 10007):
            with pytest.raises(OutOfRange, match="above the Miller-Rabin bound"):
                _factorize(n)

    def test_product_of_45_bit_primes_is_refused(self):
        # Rho needs about 2^22 steps for a 45-bit factor, past its budget.
        start = time.perf_counter()
        with pytest.raises(OutOfRange, match="no factor of a 90-bit composite"):
            _factorize(35184372088777 * 35184372088763)
        assert time.perf_counter() - start < 5

    def test_random_graph_with_a_hard_cofactor_is_refused(self):
        # The last invariant factor leaves a 178-bit composite cofactor whose
        # least prime is far past rho's budget.
        structure = SandpileGroup(random_sinked_graph(random.Random(4), 40)).structure
        assert [x.bit_length() for x in structure.invariant_factors] == [2, 198]
        start = time.perf_counter()
        with pytest.raises(OutOfRange, match="no factor of a 178-bit composite"):
            structure.elementary_divisors
        assert time.perf_counter() - start < 10


def test_group_structure_serialization():
    structure = invariant_factors(reduced_laplacian(cone(hypercube(2))))
    payload = structure.to_dict()
    assert payload == {
        "invariant_factors": [3, 15],
        "elementary_divisors": [3, 3, 5],
        "order": "45",
    }


def test_chain_normalization_collapses_coprime_orders():
    # 6 and 4 do not form a chain; the group Z6 + Z4 is Z2 + Z12.
    a = IntMatrix.from_rows([[6, 0], [0, 4]])
    assert invariant_factors(a).invariant_factors == (2, 12)
