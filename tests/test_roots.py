"""The weak-order route against the complexes: Cartan entries, ball sizes,
pair hull sizes and u-triple hull sets against the halfspace hull."""

import random

import pytest

from coxhull.convexity import halfspace_hull
from coxhull.coxeter import TypeTag, matrix_for, validate_matrix
from coxhull.roots import RootSystem, cartan


def _roots(tag):
    return RootSystem(matrix_for(tag))


def _letters(ctx, chamber):
    return [int(d) - 1 for d in ctx.word_of(chamber)]


def _weak_ball(roots, radius):
    """Elements of length <= radius, by breadth-first search on w -> w s."""
    seen = {roots.identity}
    layer = seen
    for _ in range(radius):
        layer = {roots.times(x, s) for x in layer for s in range(len(x))} - seen
        seen |= layer
    return seen


@pytest.mark.parametrize("m, pair", [(2, (0, 0)), (3, (-1, -1)), (4, (-1, -2)),
                                     (6, (-1, -3)), ("inf", (-2, -2))])
def test_cartan_entries(m, pair):
    assert cartan(validate_matrix([[1, m], [m, 1]])) == ((2, pair[0]), (pair[1], 2))


def test_cartan_rejects_order_five():
    with pytest.raises(ValueError, match="m_01 = 5"):
        cartan(validate_matrix([[1, 5], [5, 1]]))


def test_weak_order_ball_matches_complex(ctx):
    assert len(_weak_ball(_roots(ctx.tag), 6)) == len(ctx.ball(6))


@pytest.mark.parametrize("code, size", [("a2t", 109), ("c2t", 97), ("g2t", 88)])
def test_weak_order_ball_bott_sizes(code, size):
    # Bott's formula W0(t) / prod (1 - t^e) at radius 8.
    assert len(_weak_ball(_roots(TypeTag.from_code(code)), 8)) == size


def test_pair_and_u_triple_sizes_equal_halfspace_hull(ctx):
    roots = _roots(ctx.tag)
    ball = ctx.ball(8)
    rng = random.Random(15)
    for _ in range(200):
        v, w = rng.choice(ball), rng.choice(ball)
        lv, lw = _letters(ctx, v), _letters(ctx, w)
        between = roots.walk(roots.reduced(roots.element(lv[::-1] + lw)))[1]
        assert len(roots.lower_set(between)) == halfspace_hull([v, w]).size
        # The u-triple hull holds e, so it is the lower set itself.
        assert (roots.lower_set(roots.walk(lv)[1] | roots.walk(lw)[1])
                == {roots.element(_letters(ctx, c))
                    for c in halfspace_hull([ctx.base_chamber, v, w])})


def _reference_sizes(roots, lv, lw):
    """|Conv(v, w)| and |Conv(u, v, w)| with no memo: elements as tuples
    from `times`, inversion sets as frozensets of root tuples."""
    def spell(word):
        w = roots.identity
        for s in word:
            w = roots.times(w, s)
        return w

    def inversions(word):
        w, found = roots.identity, set()
        for s in word:
            assert min(w[s]) >= 0, "not reduced"
            found.add(w[s])
            w = roots.times(w, s)
        return frozenset(found)

    def hull_size(found):
        level, count = {roots.identity}, 0
        while level:
            count += len(level)
            level = {roots.times(x, s) for x in level
                     for s, root in enumerate(x) if root in found}
        return count

    x, between = spell(lv[::-1] + lw), []
    while x != roots.identity:
        s = next(s for s, root in enumerate(x) if min(root) < 0)
        between.append(s)
        x = roots.times(x, s)
    return (hull_size(inversions(between[::-1])),
            hull_size(inversions(lv) | inversions(lw)))


def test_interned_weak_order_equals_memo_free_reference(ctx):
    # One shared instance, whose memo grows query by query, and a fresh
    # instance per query give the reference's sizes, so call order
    # cannot change an answer.
    shared = _roots(ctx.tag)
    ball = ctx.ball(8)
    rng = random.Random(18)
    for _ in range(200):
        lv, lw = _letters(ctx, rng.choice(ball)), _letters(ctx, rng.choice(ball))
        want = _reference_sizes(shared, lv, lw)
        for roots in (shared, _roots(ctx.tag)):
            x = roots.element(lv[::-1] + lw)
            assert (len(roots.lower_set(roots.walk(roots.reduced(x))[1])),
                    len(roots.lower_set(roots.walk(lv)[1] | roots.walk(lw)[1]))) == want


def test_interval_sizes_equal_lower_sets_on_the_ball(ctx):
    # Every ball element at r8, listed out of length order: the pass orders
    # the elements by length itself.
    roots = _roots(ctx.tag)
    words = [_letters(ctx, c) for c in ctx.ball(8)]
    random.Random(8).shuffle(words)
    ids, masks = zip(*map(roots.walk, words))
    assert (roots.interval_sizes(ids, [len(word) for word in words])
            == [len(roots.lower_set(mask)) for mask in masks])


@pytest.mark.parametrize("orders, order", [
    pytest.param([[1, 3, 2], [3, 1, 3], [2, 3, 1]], 24, id="A3"),
    pytest.param([[1, 3, 2], [3, 1, 4], [2, 4, 1]], 48, id="B3")])
def test_interval_sizes_equal_lower_sets_on_whole_groups(orders, order):
    # The whole finite group, listed by length; the longest element's
    # interval is the group.
    roots = RootSystem(validate_matrix(orders))
    words = sorted(map(roots.reduced, roots.lower_set(-1)), key=len)
    ids, masks = zip(*map(roots.walk, words))
    sizes = roots.interval_sizes(ids, [len(word) for word in words])
    assert sizes == [len(roots.lower_set(mask)) for mask in masks]
    assert len(sizes) == sizes[-1] == order


def test_element_without_descent_raises():
    # In a Coxeter group every element but e has a right descent; one
    # without means the realization is wrong.
    roots = _roots(TypeTag.A2Tilde)
    k = roots.element([0, 1])
    roots._ascents[k] = [1, 2, 4]
    with pytest.raises(RuntimeError, match="no descent"):
        roots.reduced(k)


def test_reduced_word_spells_the_element(ctx):
    roots = _roots(ctx.tag)
    for c in ctx.ball(5):
        x = roots.element(_letters(ctx, c))
        word = roots.reduced(x)
        assert len(word) == len(ctx.word_of(c))
        assert roots.element(word) == x


@pytest.mark.parametrize("code, word", [("a2t", [0, 0]), ("a2t", [0, 1, 0, 1]),
                                        ("c2t", [0, 1, 0]), ("i2inf", [0, 1, 1])])
def test_non_reduced_word_raises(code, word):
    with pytest.raises(RuntimeError, match="not reduced"):
        _roots(TypeTag.from_code(code)).walk(word)
