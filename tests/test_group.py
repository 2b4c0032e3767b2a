from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxhull.coxeter import INF, TypeTag
from coxhull.group import (MixedContext, apply, apply_scaled, compose, element_order,
                           identity, preimage_scaled, vec)
from coxhull.tessellation import build_group


def test_generators_are_involutions(ctx):
    for s in ctx.gens:
        assert compose(s, s) == identity(ctx.tag.code)
        assert s != identity(ctx.tag.code)


def test_pairwise_orders_match_matrix(ctx):
    for i in range(ctx.rank):
        for j in range(ctx.rank):
            if i == j:
                continue
            m = ctx.matrix.order(i, j)
            if m == INF:
                # No finite power of the product is the identity.
                acc = compose(ctx.gens[i], ctx.gens[j])
                g = acc
                for _ in range(40):
                    assert g != identity(ctx.tag.code)
                    g = compose(g, acc)
                with pytest.raises(ValueError, match="^order exceeds 64$"):
                    element_order(acc)
            else:
                assert element_order(compose(ctx.gens[i], ctx.gens[j])) == m


def test_braid_relation_in_triangular_group(a2):
    s1, s2, _ = a2.gens
    assert compose(compose(s1, s2), s1) == compose(compose(s2, s1), s2)


@given(st.sampled_from(["a2t", "c2t", "g2t", "i2inf"]),
       st.lists(st.integers(min_value=0, max_value=2), max_size=12))
def test_word_times_reverse_is_the_identity(code, word):
    ctx = build_group(TypeTag.from_code(code))
    word = [i % ctx.rank for i in word]
    e = identity(ctx.tag.code)
    for i in word + word[::-1]:
        e = compose(e, ctx.gens[i])
    assert e == identity(ctx.tag.code)


def test_line_model_reflections(i2):
    r1, r2 = i2.gens
    for x in (-3, 0, 2, 7):
        p = vec(x, 0)
        assert apply(r1, p) == vec(-x, 0)
        assert apply(r2, p) == vec(2 - x, 0)
    # r2 r1 is the translation by +2
    t = compose(r2, r1)
    assert apply(t, vec(5, 0)) == vec(7, 0)


def test_mixed_context_rejected(a2, c2):
    with pytest.raises(MixedContext):
        compose(a2.gens[0], c2.gens[0])


def test_linear_part_is_orthogonal(ctx):
    # Orthogonal for the frame's metric, which in the frame reads
    # A G^-1 A^T = G^-1.
    g11, g12, g22 = map(Fraction, ctx.gram_inv)
    for s in ctx.gens:
        _, a, b, c, d, _, _ = s
        assert a * a * g11 + 2 * a * b * g12 + b * b * g22 == g11
        assert c * c * g11 + 2 * c * d * g12 + d * d * g22 == g22
        assert a * c * g11 + (a * d + b * c) * g12 + b * d * g22 == g12
        det = a * d - b * c
        assert det == 1 or det == -1


def test_scaled_maps_match_exact_apply(ctx):
    # On a point scaled by m, apply_scaled is apply scaled by m, and
    # preimage_scaled undoes it.
    p, m = (7, -5), 6
    exact = vec(Fraction(7, 6), Fraction(-5, 6))
    for c in ctx.ball(4):
        e = c.element
        q = apply_scaled(e, *p, m)
        assert tuple(Fraction(x, m) for x in q) == apply(e, exact)
        assert preimage_scaled(e, *q, m) == p
