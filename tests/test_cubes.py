from __future__ import annotations

import itertools
from math import comb, gcd
from types import SimpleNamespace

import pytest

from oracles import all_masks, direct_sum_by_enumeration, matmul, subcube_embeddings_by_bits
import sandpiles.cubes as cubes
import sandpiles.morphisms as morphisms
from sandpiles.cubes import (
    _cube,
    cone_stripe_subgroup,
    cube_cone,
    invariant_factor_count,
    parity_collapse_hom,
    parity_stripe,
    stripe_generator,
    stripe_subgroup,
    structure_formula_factors,
    subcube_embed,
    subcube_embed_recurrent,
    thick_k2_power,
    verify_decomposition,
    verify_even_cone_counterexample,
    verify_invariant_factor_count,
    verify_structure,
)
from sandpiles.dynamics import RecurrentConfig, SandpileGroup, sandpile_group
from sandpiles.errors import OutOfRange, ValidationFailed
from sandpiles.graphs import build_multigraph, cone, hypercube, subcube, thick_pair
from sandpiles.intlinalg import (
    IntMatrix,
    LatticeSolver,
    cokernel_diagonal,
    determinant,
    elementary_divisors_of,
    invariant_factors,
    reduced_laplacian,
)
from sandpiles.morphisms import verify_group_injection


class TestParityStripe:
    def test_single_coordinate(self):
        assert parity_stripe(2, (1, 0), 2, 1) == (2, 1, 2, 1)
        assert parity_stripe(2, (0, 1), 2, 1) == (2, 2, 1, 1)

    def test_diagonal(self):
        assert parity_stripe(2, (1, 1), 2, 0) == (2, 0, 0, 2)

    def test_equal_values_constant(self):
        assert parity_stripe(3, (1, 1, 0), 4, 4) == (4,) * 8

    def test_wrong_mask_length_refused(self):
        with pytest.raises(ValueError, match="mask length 2 != 3"):
            parity_stripe(3, (1, 0), 2, 1)


class TestStripeGenerator:
    def test_square_generators(self):
        assert stripe_generator(2, (1, 0)).values == (2, 1, 2, 1)
        assert stripe_generator(2, (0, 1)).values == (2, 2, 1, 1)
        assert stripe_generator(2, (1, 1)).values == (2, 0, 0, 2)
        assert stripe_generator(2, (0, 0)).values == (2, 2, 2, 2)

    def test_zero_mask_is_identity(self):
        d = 3
        gen = stripe_generator(d, (0, 0, 0))
        group = sandpile_group(cube_cone(d))
        assert gen.values == group.identity.values
        assert group.element_order(gen) == 1

    def test_full_mask_order_seven(self):
        gen = stripe_generator(3, (1, 1, 1))
        assert sandpile_group(cube_cone(3)).element_order(gen) == 7

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_orders_follow_weight(self, d):
        group = sandpile_group(cube_cone(d))
        for mask in all_masks(d):
            w = sum(mask)
            gen = stripe_generator(d, mask)
            assert group.element_order(gen) == 2 * w + 1


class TestStripeSubgroup:
    def test_square_lists(self):
        assert set(stripe_subgroup(2, (1, 0)).elements) == {
            (2, 1, 2, 1), (1, 2, 1, 2), (2, 2, 2, 2),
        }
        assert set(stripe_subgroup(2, (0, 1)).elements) == {
            (2, 2, 1, 1), (1, 1, 2, 2), (2, 2, 2, 2),
        }
        assert set(stripe_subgroup(2, (1, 1)).elements) == {
            (2, 0, 0, 2), (1, 2, 2, 1), (2, 1, 1, 2), (0, 2, 2, 0), (2, 2, 2, 2),
        }

    def test_zero_mask_trivial(self):
        sub = stripe_subgroup(2, (0, 0))
        assert sub.elements == ((2, 2, 2, 2),) and sub.order == 1

    def test_closure(self):
        group = sandpile_group(cube_cone(3))
        for mask in all_masks(3):
            sub = stripe_subgroup(3, mask)
            members = set(sub.elements)
            for a in members:
                for b in members:
                    assert group.add_values(a, b) in members

    @pytest.mark.parametrize("d", [2, 3])
    def test_power_pattern_lifts_the_thick_pair_formula(self, d):
        group = sandpile_group(cube_cone(d))
        for mask in all_masks(d):
            w = sum(mask)
            if w == 0:
                continue
            gen = stripe_generator(d, mask).values
            acc = gen
            for k in range(1, 2 * w + 2):
                m, l = thick_k2_power(w, k % (2 * w + 1))
                shift = d - w
                assert acc == parity_stripe(d, mask, m + shift, l + shift)
                acc = group.add_values(acc, gen)

    @pytest.mark.parametrize("d", [2, 3])
    def test_disjoint_masks_add_coordinatewise(self, d):
        group = sandpile_group(cube_cone(d))
        ones = (d,) * (1 << d)
        masks = all_masks(d)
        for m1 in masks:
            for m2 in masks:
                if any(a and b for a, b in zip(m1, m2)):
                    continue
                for c1 in stripe_subgroup(d, m1).elements:
                    for c2 in stripe_subgroup(d, m2).elements:
                        expected = tuple(x + y - d for x, y in zip(c1, c2))
                        assert group.add_values(c1, c2) == expected


class TestThickK2Power:
    def test_examples(self):
        assert thick_k2_power(1, 2) == (0, 1)
        assert thick_k2_power(2, 3) == (2, 1)
        assert thick_k2_power(3, 0) == (3, 3)
        assert thick_k2_power(2, 1) == (2, 0)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            thick_k2_power(2, 5)
        with pytest.raises(OutOfRange):
            thick_k2_power(2, -1)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_matches_iterated_addition(self, r):
        group = sandpile_group(cone(thick_pair(r)))
        acc = group.identity.values
        for k in range(0, 2 * r + 1):
            assert acc == thick_k2_power(r, k)
            acc = group.add_values(acc, (r, 0))


class TestOrderFormula:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_determinant_matches_product(self, d, k):
        det = determinant(reduced_laplacian(cube_cone(d, 2 * k + 1)))
        expected = 1
        for i in range(d + 1):
            expected *= (2 * k + 2 * i + 1) ** comb(d, i)
        assert det == expected


class TestSylowConsistency:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [0, 1])
    def test_product_of_laplacians(self, d, k):
        from sandpiles.intlinalg import invariant_factors

        a = reduced_laplacian(cube_cone(d, 2 * k + 1))
        b = reduced_laplacian(cube_cone(d, 2 * k + 3))
        product_structure = invariant_factors(matmul(a, b))
        sa = invariant_factors(a)
        sb = invariant_factors(b)
        primes = set()
        for divisor in sa.elementary_divisors + sb.elementary_divisors:
            p = smallest_prime(divisor)
            primes.add(p)
        for p in primes:
            if p == 2:
                continue
            got = sorted(x for x in product_structure.elementary_divisors if x % p == 0)
            want = sorted(
                x for x in sa.elementary_divisors + sb.elementary_divisors if x % p == 0
            )
            assert got == want, (d, k, p)


def smallest_prime(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


class TestIdentityPattern:
    @pytest.mark.parametrize("d,n", [(1, 1), (2, 1), (3, 1), (1, 3), (2, 3), (2, 5), (3, 2)])
    def test_identity_is_scaled_ones(self, d, n):
        group = sandpile_group(cube_cone(d, n))
        k_max = (n + d - 1) // n
        assert group.identity.values == (k_max * n,) * (1 << d)

    def test_group_law_at_max_d(self):
        group = sandpile_group(cube_cone(8))
        assert group.element_order(group.identity) == 1
        x = [(-1) ** i * (3 * i % 17) for i in range(256)]
        assert group.congruent(group.representative(x).values, x)


class TestParityCollapse:
    def test_degrees(self):
        assert parity_collapse_hom(3, (1, 1, 0)).degree == 2
        assert parity_collapse_hom(2, (1, 1)).degree == 2
        assert parity_collapse_hom(1, (1,)).degree == 1
        assert parity_collapse_hom(4, (1, 1, 1, 1)).degree == 8

    def test_single_coordinate_is_relabeling(self):
        hom = parity_collapse_hom(3, (0, 1, 0))
        assert hom.degree == 1 and hom.surjective

    def test_induced_injection(self):
        report = verify_group_injection(parity_collapse_hom(2, (1, 1)))
        assert report.passed and report.image_order == 5

    def test_fibers_split_by_parity(self):
        hom = parity_collapse_hom(3, (1, 1, 0))
        assert sorted(hom.vertex_map.fiber("v1")) == ["v000", "v110"]
        assert sorted(hom.vertex_map.fiber("v2")) == ["v010", "v100"]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_zero_mask_refused(self, d):
        with pytest.raises(ValueError):
            parity_collapse_hom(d, (0,) * d)


class TestSubcubeEmbedding:
    def test_embedding_the_edge_generator_gives_the_stripe_generator(self):
        assert subcube_embed(2, (1, 0), (1, 0)) == (2, 1, 2, 1)
        assert subcube_embed(2, (0, 1), (1, 0)) == (2, 2, 1, 1)

    def test_image_characterization(self):
        # an embedded configuration is constant across the unmasked coordinates
        for mask in [(1, 0), (0, 1)]:
            sub_cone = cone(subcube(2, mask))
            for c in sorted(sandpile_group(sub_cone).recurrents()):
                vec = subcube_embed(2, mask, c)
                for x in range(4):
                    for y in range(4):
                        m = mask[0] + 2 * mask[1]
                        if (x & m) == (y & m):
                            assert vec[x] == vec[y]

    def test_wrong_length_refused(self):
        with pytest.raises(ValueError):
            subcube_embed(2, (1, 0), (1, 0, 0))

    def test_context_is_built_once(self, monkeypatch):
        built = []

        def spy(d, mask):
            built.append(tuple(mask))
            return subcube(d, mask)

        cubes._embed_context.cache_clear()
        monkeypatch.setattr(cubes, "subcube", spy)
        c = (2, 1, 0, 2, 2, 1, 0, 2)
        assert subcube_embed(4, (1, 0, 1, 1), c) == subcube_embed(4, (1, 0, 1, 1), c)
        assert sorted(built) == [(0, 1, 0, 0), (1, 0, 1, 1)]

    @pytest.mark.parametrize("mask, n", [((1, 0, 1, 1), 1), ((0, 1, 1, 0), 3)])
    def test_matches_bit_oracle_on_every_recurrent(self, mask, n):
        recs = sorted(sandpile_group(cone(subcube(4, mask), n)).recurrents())
        assert [subcube_embed(4, mask, c, n) for c in recs] == subcube_embeddings_by_bits(
            4, mask, recs, n
        )

    @pytest.mark.parametrize("mask", all_masks(2))
    def test_representative_branch_at_n_three(self, mask):
        # n > 1: the box can be unstable, and the image is its representative
        group = sandpile_group(cube_cone(2, 3))
        recs = sandpile_group(cone(subcube(2, mask), 3)).recurrents()
        images = set()
        for c in recs:
            image = subcube_embed_recurrent(2, mask, c, 3).values
            assert image == group.representative(subcube_embed(2, mask, c, 3)).values
            images.add(image)
        assert len(images) == len(recs)

    @pytest.mark.parametrize("d", [2, 3])
    def test_pairwise_intersections(self, d):
        groups = {}
        for mask in all_masks(d):
            sub_cone = cone(subcube(d, mask))
            images = frozenset(
                subcube_embed_recurrent(d, mask, c).values
                for c in sandpile_group(sub_cone).recurrents()
            )
            groups[mask] = images
        for m1 in all_masks(d):
            for m2 in all_masks(d):
                meet = tuple(a * b for a, b in zip(m1, m2))
                assert groups[m1] & groups[m2] == groups[meet]


class TestConeStripeSubgroups:
    def test_printed_lists_for_triple_cone(self):
        sub00 = cone_stripe_subgroup(2, 3, (0, 0))
        assert set(sub00.elements) == {(2, 2, 2, 2), (4, 4, 4, 4), (3, 3, 3, 3)}
        assert sub00.order == 3

        sub10 = cone_stripe_subgroup(2, 3, (1, 0))
        assert set(sub10.patterns) == {
            (3, 0, 3, 0), (2, 1, 2, 1), (1, 2, 1, 2), (0, 3, 0, 3), (3, 3, 3, 3),
        }
        sub01 = cone_stripe_subgroup(2, 3, (0, 1))
        assert set(sub01.patterns) == {
            (0, 0, 3, 3), (2, 2, 1, 1), (1, 1, 2, 2), (3, 3, 0, 0), (3, 3, 3, 3),
        }
        sub11 = cone_stripe_subgroup(2, 3, (1, 1))
        assert len(sub11.patterns) == 7
        assert (0, 3, 3, 0) in sub11.patterns
        assert (3, 3, 3, 3) in sub11.patterns

    def test_patterns_are_congruent_to_elements(self):
        group = sandpile_group(cube_cone(2, 3))
        for mask in all_masks(2):
            sub = cone_stripe_subgroup(2, 3, mask)
            assert sub.order == sub.expected_order == 2 * sum(mask) + 3
            for pattern, element in zip(sub.patterns, sub.elements):
                assert group.congruent(pattern, element)
                assert group.is_recurrent(element)

    def test_elements_form_a_subgroup(self):
        group = sandpile_group(cube_cone(2, 3))
        for mask in all_masks(2):
            members = set(cone_stripe_subgroup(2, 3, mask).elements)
            for a in members:
                for b in members:
                    assert group.add_values(a, b) in members

    def test_subgroup_orders_multiply_to_group_order(self):
        total = 1
        for mask in all_masks(2):
            total *= cone_stripe_subgroup(2, 3, mask).order
        assert total == sandpile_group(cube_cone(2, 3)).order == 525

    def test_even_cone_flagged(self):
        sub = cone_stripe_subgroup(2, 2, (1, 0))
        assert not sub.odd_cone

    def test_n_one_matches_stripe_subgroup(self):
        for mask in all_masks(2):
            assert set(cone_stripe_subgroup(2, 1, mask).elements) == set(
                stripe_subgroup(2, mask).elements
            )

    def test_pair_generator_order(self):
        # The pair cone's generator (c, 0), c = ceil(w/n)*n, has order
        # (2w + n) / gcd(c, 2w + n).  In 14 of these cases gcd(n, w) = 1 and
        # the order is still below 2w + n, the first at n = 5, w = 11.
        short = []
        for n in range(1, 12, 2):
            for w in range(1, 40):
                c = -(-w // n) * n
                order = sandpile_group(cone(thick_pair(w), n)).element_order((c, 0))
                assert order == (2 * w + n) // gcd(c, 2 * w + n)
                if order != 2 * w + n and gcd(n, w) == 1:
                    short.append((n, w, order))
        assert len(short) == 14 and short[0] == (5, 11, 9)


class TestStructureReports:
    def test_small_cases(self):
        assert verify_structure(1, 0).computed == (3,)
        assert verify_structure(2, 0).computed == (3, 3, 5)
        assert verify_structure(2, 1).computed == (3, 5, 5, 7)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_formula_holds(self, d, k):
        assert verify_structure(d, k).passed

    def test_one_list_is_factored(self, monkeypatch):
        import sandpiles.intlinalg as intlinalg

        factored = []
        divisors = intlinalg.elementary_divisors_of
        monkeypatch.setattr(
            intlinalg, "elementary_divisors_of", lambda f: factored.append(f) or divisors(f)
        )
        report = verify_structure(4, 1)
        assert report.passed and report.computed is report.expected
        assert factored == [structure_formula_factors(4, 1)]

    def test_guard(self):
        for d in (0, 13):
            with pytest.raises(OutOfRange, match="need 1 <= d <= 12"):
                verify_structure(d, 0)
        with pytest.raises(OutOfRange, match="k must be nonnegative"):
            verify_structure(2, -1)


class TestEvenConeReport:
    def test_counterexample(self):
        report = verify_even_cone_counterexample()
        assert report.passed
        assert report.computed == (3, 8, 8)
        assert report.formula_divisors == (2, 2, 3, 4, 4)
        assert report.orders_match


@pytest.fixture
def fresh_certificates():
    """The character certificate and the cube cones are cached per (d, n): a
    test that swaps the cone must not read the true cone's proofs, nor leave
    its own behind."""
    cubes._cube.cache_clear()
    yield
    cubes._cube.cache_clear()


def cube_cone_with_extra_edge(d: int, n: int = 1):
    cube = hypercube(d)
    v = cube.vertices
    return cone(build_multigraph(v, cube.edges() + [(v[0], v[3], 1)]), n)


def lu(d: int, n: int = 1) -> LatticeSolver:
    """The exact LU of the cube cone's reduced Laplacian, which the group of a
    Cayley cone no longer builds."""
    return LatticeSolver(reduced_laplacian(cube_cone(d, n)))


class TestOddConeCertificate:
    """The character proof against the exact LU."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 3, 5, 9])
    def test_matches_the_lu(self, d, n):
        orders = _cube(d, n)[1]
        structure = invariant_factors(lu(d, n))
        assert elementary_divisors_of(orders) == structure.elementary_divisors

    @pytest.mark.parametrize("n", [2, 4])
    def test_even_cones_are_refused(self, n):
        for d in range(1, 6):
            assert _cube(d, n)[1] is None

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_decomposition_matches_the_lu(self, d):
        report = verify_decomposition(d)
        solver = lu(d)
        stripes = [parity_stripe(d, mask, d, d - sum(mask)) for mask in all_masks(d)[1:]]
        for mask, stripe in zip(all_masks(d)[1:], stripes):
            # The identity is the class of 0, so a stripe's element order is
            # the order of its class.
            assert solver.class_order(stripe) == report.stripe_orders[sum(mask) - 1]
        rows = [list(r) for r in solver.b.entries] + [list(s) for s in stripes]
        exponent = max(invariant_factors(solver).invariant_factors)
        assert cokernel_diagonal(IntMatrix.from_rows(rows), exponent) == report.lattice_diagonal

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_invariant_factor_count_matches_the_lu(self, d):
        structure = invariant_factors(lu(d))
        assert verify_invariant_factor_count(d).computed == len(structure.invariant_factors)

    def test_an_extra_edge_fails_every_report(self, monkeypatch, fresh_certificates):
        monkeypatch.setattr(cubes, "cube_cone", cube_cone_with_extra_edge)
        structure = verify_structure(3, 1)
        assert not structure.passed and structure.computed == ()
        decomposition = verify_decomposition(3)
        assert not decomposition.passed
        assert decomposition.lattice_diagonal == decomposition.stripe_orders == ()
        count = verify_invariant_factor_count(3)
        assert not count.passed and count.computed == 0


class TestDecomposition:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7])
    def test_lattice_fills_out(self, d):
        report = verify_decomposition(d)
        assert report.passed and not report.element_level
        assert all(x == 1 for x in report.lattice_diagonal)
        assert report.stripe_orders == tuple(range(3, 2 * d + 2, 2))

    @pytest.mark.parametrize("d, order", [(1, 3), (2, 45), (3, 23625)])
    def test_matches_the_sum_enumeration(self, d, order):
        assert verify_decomposition(d).passed
        assert sandpile_group(cube_cone(d)).order == order
        assert direct_sum_by_enumeration(d) == (order, order)

    def test_a_non_recurrent_stripe_fails(self, monkeypatch):
        monkeypatch.setattr(SandpileGroup, "is_recurrent", lambda self, values: False)
        report = verify_decomposition(3)
        assert not report.passed
        assert report.lattice_diagonal == report.stripe_orders == ()

    @pytest.mark.parametrize("d", [0, 13])
    def test_guard(self, d, monkeypatch):
        # Refused before any graph is built.
        monkeypatch.setattr(cubes, "cube_cone", None)
        with pytest.raises(OutOfRange, match="need 1 <= d <= 12"):
            verify_decomposition(d)


class TestInvariantFactorCount:
    def test_values(self):
        assert invariant_factor_count(4) == 6
        assert invariant_factor_count(2) == 2
        assert invariant_factor_count(1) == 1

    def test_closed_form_equals_prime_maximum(self):
        # the closed form is the max over odd primes of the multiplicity sum
        for d in range(1, 13):
            best = 0
            for p in range(3, 2 * d + 2, 2):
                if smallest_prime(p) != p:
                    continue
                best = max(best, sum(comb(d, i) for i in range(d + 1) if (2 * i + 1) % p == 0))
            assert invariant_factor_count(d) == best

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_computed_chain(self, d):
        assert verify_invariant_factor_count(d).passed

    def test_guard(self):
        for d in (0, 13):
            with pytest.raises(OutOfRange, match="need 1 <= d <= 12"):
                verify_invariant_factor_count(d)
        with pytest.raises(OutOfRange, match="need d >= 1"):
            invariant_factor_count(0)


class TestCertificateRaises:
    """Each check of the stripe and collapse constructions refuses a
    corrupted input instead of returning it."""

    def test_stripe_generator_must_burn(self, monkeypatch):
        monkeypatch.setattr(cubes, "parity_stripe", lambda d, mask, even, odd: (0,) * (1 << d))
        with pytest.raises(ValidationFailed, match="is not recurrent"):
            stripe_generator(2, (1, 0))

    def test_powers_must_close(self):
        # A law that reaches the identity only after |K| + 1 steps.
        group = SandpileGroup(cube_cone(2))
        gen = stripe_generator(2, (1, 0)).values
        steps = iter([gen] * group.order + [group.identity.values])
        group.add_values = lambda c1, c2: next(steps)
        with pytest.raises(ValidationFailed, match="failed to close"):
            cubes._cyclic_powers(group, gen)

    def test_stripe_powers_must_match_the_family(self, monkeypatch):
        monkeypatch.setattr(cubes, "thick_k2_power", lambda r, k: (r, r))
        with pytest.raises(ValidationFailed, match="differ from the stripe family"):
            stripe_subgroup(2, (1, 1))

    def test_collapse_degree_is_checked(self, monkeypatch):
        monkeypatch.setattr(morphisms, "bipartite_collapse_hom",
                            lambda sub, parts: SimpleNamespace(degree=1))
        with pytest.raises(ValidationFailed, match="collapse degree 1 != 2"):
            parity_collapse_hom(2, (1, 1))

    def test_constant_classes_must_differ(self, monkeypatch):
        monkeypatch.setattr(SandpileGroup, "representative",
                            lambda self, x: RecurrentConfig(self.graph, (1,) * len(x), "burning"))
        with pytest.raises(ValidationFailed, match="constant classes collided"):
            cone_stripe_subgroup(2, 2, (0, 0))

    def test_pair_generator_must_burn(self, monkeypatch):
        monkeypatch.setattr(SandpileGroup, "is_recurrent", lambda self, values: False)
        with pytest.raises(ValidationFailed, match="not recurrent on the pair cone"):
            cone_stripe_subgroup(2, 1, (1, 0))

    def test_stripe_lifts_must_differ(self, monkeypatch):
        # Only the cube cone's classes collapse; the pair cone's powers stay true.
        graph = cube_cone(2)
        real = SandpileGroup.representative

        def collapsed(self, x):
            if self.graph != graph:
                return real(self, x)
            return RecurrentConfig(graph, (1,) * len(x), "burning")

        monkeypatch.setattr(SandpileGroup, "representative", collapsed)
        with pytest.raises(ValidationFailed, match="stripe lifts collided"):
            cone_stripe_subgroup(2, 1, (1, 0))
