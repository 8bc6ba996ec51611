from __future__ import annotations

import itertools
import random

import pytest

from oracles import burning_order_by_sweeps
from sandpiles.dynamics import (
    RecurrentConfig,
    SandpileGroup,
    is_recurrent_burning,
    sandpile_group,
)
from sandpiles.errors import ContextMismatch, NonPositiveMultiplicity, ValidationFailed
from sandpiles.graphs import build_multigraph, cone, cycle_graph, hypercube, k2
from sandpiles.intlinalg import reduced_laplacian
from sandpiles.products import BoxContext, embed_factor


def k3():
    return cycle_graph(3)


class TestBoxConfig:
    def test_pentagon_times_edge(self):
        ctx = BoxContext(cycle_graph(5), k2())
        assert ctx.box((2, 1, 5, 4, 3), (1, 2)) == (3, 2, 6, 5, 4, 4, 3, 7, 6, 5)

    def test_edge_times_edge(self):
        # with the first factor varying fastest, the constant factor selects
        # which coordinate the result stripes along
        ctx = BoxContext(k2(), k2())
        assert ctx.box((1, 0), (1, 1)) == (2, 1, 2, 1)
        assert ctx.box((1, 1), (1, 0)) == (2, 2, 1, 1)
        for vec in ((2, 1, 2, 1), (2, 2, 1, 1)):
            assert is_recurrent_burning(ctx.cone_product, vec)[0]

    def test_zero(self):
        ctx = BoxContext(k2(), k2())
        assert ctx.box((0, 0), (0, 0)) == (0, 0, 0, 0)

    def test_length_mismatch(self):
        ctx = BoxContext(k2(), k2())
        with pytest.raises(ContextMismatch):
            ctx.box((1,), (1, 0))

    @pytest.mark.parametrize("n", [0, -3])
    def test_nonpositive_multiplicity_refused(self, n):
        with pytest.raises(NonPositiveMultiplicity, match=f"got {n}"):
            BoxContext(k2(), k2(), n)

    def test_box_of_stable_is_stable(self):
        rng = random.Random(19)
        for _ in range(40):
            g = cycle_graph(rng.choice([3, 4, 5]))
            h = k2() if rng.random() < 0.5 else cycle_graph(3)
            ctx = BoxContext(g, h)
            a = tuple(rng.randrange(ctx.cone_g.out_degrees[i]) for i in range(g.n))
            b = tuple(rng.randrange(ctx.cone_h.out_degrees[j]) for j in range(h.n))
            vec = ctx.box(a, b)
            assert all(
                x < d for x, d in zip(vec, ctx.cone_product.out_degrees)
            )

    def test_box_of_recurrent_is_recurrent(self):
        ctx = BoxContext(k3(), k2())
        recs_g = sorted(sandpile_group(ctx.cone_g).recurrents())
        recs_h = sorted(sandpile_group(ctx.cone_h).recurrents())
        for a in recs_g:
            for b in recs_h:
                vec = ctx.box(a, b)
                assert is_recurrent_burning(ctx.cone_product, vec)[0]

    def test_interleaved_burning_schedule_certifies_box(self):
        # fire (u_i, v_j) with the second factor's certificate in the outer
        # loop; every vertex is unstable at its turn
        ctx = BoxContext(k3(), k2())
        prod = ctx.cone_product
        lap = reduced_laplacian(prod)
        a = (2, 1, 2)
        b = (1, 0)
        order_a = burning_order_by_sweeps(ctx.cone_g, a)
        order_b = burning_order_by_sweeps(ctx.cone_h, b)
        vec = ctx.box(a, b)
        work = [x + s for x, s in zip(vec, prod.sink_mult)]
        for v_h in order_b:
            j = ctx.cone_h.nonsink_index(v_h)
            for v_g in order_a:
                i = ctx.cone_g.nonsink_index(v_g)
                idx = ctx.index(i, j)
                assert work[idx] >= prod.out_degrees[idx]
                work = [w - d for w, d in zip(work, lap.entries[idx])]
        assert tuple(work) == vec


class TestEmbedFactor:
    def test_pentagon_prism_embeddings(self):
        ctx = BoxContext(cycle_graph(5), k2())
        group = sandpile_group(ctx.cone_product)
        from_h = embed_factor(ctx, (1, 0), factor="h")
        assert from_h.values == (3, 3, 3, 3, 3, 2, 2, 2, 2, 2)
        assert group.element_order(from_h) == 3
        from_g = embed_factor(ctx, (2, 1, 1, 1, 1), factor="g")
        assert from_g.values == (3, 2, 2, 2, 2, 3, 2, 2, 2, 2)
        assert group.element_order(from_g) == 11
        assert embed_factor(ctx, (1, 2, 1, 1, 1), factor="g").values == (
            2, 3, 2, 2, 2, 2, 3, 2, 2, 2,
        )

    def test_identity_maps_to_identity(self):
        ctx = BoxContext(k3(), k2())
        e_g = sandpile_group(ctx.cone_g).identity
        assert embed_factor(ctx, e_g, "g").values == sandpile_group(ctx.cone_product).identity.values

    def test_homomorphism_law_on_all_pairs(self):
        ctx = BoxContext(k2(), k2())
        g_side = sandpile_group(ctx.cone_g)
        prod = sandpile_group(ctx.cone_product)
        recs = sorted(g_side.recurrents())
        images = {a: embed_factor(ctx, a, "g").values for a in recs}
        for a, b in itertools.product(recs, repeat=2):
            lhs = images[g_side.add_values(a, b)]
            rhs = prod.add_values(images[a], images[b])
            assert lhs == rhs
        assert len(set(images.values())) == len(recs)

    def test_failed_burning_test_is_caught(self, monkeypatch):
        # Both factor identities are cached first, so only the product
        # cone's representative meets the failing test.
        ctx = BoxContext(k3(), k2())
        a = sandpile_group(ctx.cone_g).identity
        sandpile_group(ctx.cone_h).identity
        monkeypatch.setattr(SandpileGroup, "is_recurrent", lambda self, c: False)
        with pytest.raises(ValidationFailed, match="failed the burning test"):
            embed_factor(ctx, a, "g")

    @pytest.mark.parametrize("factor, length", [("g", 4), ("h", 1)])
    def test_wrong_length_refused(self, factor, length):
        ctx = BoxContext(k3(), k2())
        with pytest.raises(ContextMismatch):
            embed_factor(ctx, (1,) * length, factor)

    def test_unknown_factor_refused(self):
        ctx = BoxContext(k3(), k2())
        with pytest.raises(ValueError):
            embed_factor(ctx, (1, 1, 1), factor="x")

    def test_injective_on_pentagon(self):
        ctx = BoxContext(cycle_graph(5), k2())
        recs = sorted(sandpile_group(ctx.cone_g).recurrents())
        images = {embed_factor(ctx, a, "g").values for a in recs}
        assert len(images) == len(recs)


class TestEmbedFactorReduced:
    """n-cones, where embed_factor reduces the box to its class representative."""

    def test_unstable_box_of_identities(self):
        ctx = BoxContext(k2(), k2(), n=3)
        e = sandpile_group(ctx.cone_g).identity
        assert e.values == (3, 3)
        raw = ctx.box(e.values, sandpile_group(ctx.cone_h).identity.values)
        assert raw == (6, 6, 6, 6)
        assert any(x >= d for x, d in zip(raw, ctx.cone_product.out_degrees))
        reduced = embed_factor(ctx, e, "g")
        assert reduced.values == sandpile_group(ctx.cone_product).identity.values == (3, 3, 3, 3)

    def test_cyclic_generator_lands_in_stripe_classes(self):
        from sandpiles.cubes import cone_stripe_subgroup

        ctx = BoxContext(k2(), k2(), n=3)
        g_side = sandpile_group(ctx.cone_g)
        assert g_side.element_order((3, 0)) == 5
        landed = embed_factor(ctx, (3, 0), "g")
        sub = cone_stripe_subgroup(2, 3, (1, 0))
        assert landed.values in sub.elements

    def test_reduced_embedding_is_homomorphism(self):
        ctx = BoxContext(k2(), k2(), n=3)
        g_side = sandpile_group(ctx.cone_g)
        prod = sandpile_group(ctx.cone_product)
        recs = sorted(g_side.recurrents())
        images = {a: embed_factor(ctx, a, "g").values for a in recs}
        rng = random.Random(3)
        for _ in range(60):
            a, b = rng.choice(recs), rng.choice(recs)
            assert images[g_side.add_values(a, b)] == prod.add_values(images[a], images[b])
        assert len(set(images.values())) == len(recs)

    def test_congruent_inputs_embed_alike(self):
        # a and a + L^T y, with L the reduced Laplacian of the factor cone,
        # box to configurations congruent on the product cone.
        rng = random.Random(11)
        for g, h in ((k3(), k2()), (cycle_graph(4), k3())):
            for n in (2, 3):
                ctx = BoxContext(g, h, n=n)
                for factor, side in (("g", ctx.cone_g), ("h", ctx.cone_h)):
                    lt = reduced_laplacian(side).transpose()
                    for _ in range(3):
                        a = [rng.randint(0, 6) for _ in range(lt.rows)]
                        y = [rng.randint(-3, 3) for _ in range(lt.rows)]
                        shifted = [x + z for x, z in zip(a, lt.mul_vector(y))]
                        assert (embed_factor(ctx, shifted, factor).values
                                == embed_factor(ctx, a, factor).values)
