"""Hull sizes in the weak order, from the Cartan matrix alone.

By Tits' convexity theorem a set of chambers is convex iff it is an
intersection of roots (half-apartments).  Write N(x) for the inversion
set of x: the positive roots b with x^-1(b) negative, one for each wall
between e and x.  For a point set S that holds e,

    Conv(S) = {x : N(x) is a subset of the union of N(s), s in S},

and by left translation |Conv(v, w)| = |Conv(e, v^-1 w)|.  So hull sizes
follow from an integer Cartan matrix, with no geometry: this module reads
nothing but the Coxeter matrix.

An element w is the tuple of its images w(a_1), ..., w(a_n) of the simple
roots, each a tuple of integer coefficients over the simple roots.  A
root is positive iff its coefficients are >= 0, and each real root is
either positive or negative.  Words are sequences of 0-based generator
indices.

Refs: Abramenko-Brown, Buildings, ch. 3 (Tits' theorem); Bjorner-Brenti,
Combinatorics of Coxeter Groups, ch. 3-4; Kac, Infinite Dimensional Lie
Algebras, 3.13 (the Weyl group of a generalized Cartan matrix is a
Coxeter group).
"""

from __future__ import annotations

from .coxeter import INF

# (a_ij, a_ji) for i < j by the order m = m_ij.  a_ij * a_ji = 4 cos^2(pi/m)
# for finite m, and 4 for m = INF, so the group the s_i generate realizes m.
_CARTAN_PAIRS = {2: (0, 0), 3: (-1, -1), 4: (-1, -2), 6: (-1, -3), INF: (-2, -2)}


def cartan(matrix) -> tuple:
    """The Cartan matrix of a `CoxeterMatrix`: a_ii = 2 and the pairs above.
    An order without a crystallographic pair raises ValueError."""
    a = [[2] * matrix.rank for _ in range(matrix.rank)]
    for i in range(matrix.rank):
        for j in range(i + 1, matrix.rank):
            m = matrix.order(i, j)
            if m not in _CARTAN_PAIRS:
                raise ValueError(f"no Cartan entries for m_{i}{j} = {m}")
            a[i][j], a[j][i] = _CARTAN_PAIRS[m]
    return tuple(map(tuple, a))


class RootSystem:
    """Elements, inversion sets and weak-order hull sizes of one Coxeter
    group, realized on its root lattice by s_i(a_j) = a_j - a_ij a_i."""

    def __init__(self, matrix) -> None:
        self.cartan = cartan(matrix)
        n = matrix.rank
        self.identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))

    def times(self, w, s: int):
        """The element w s_s: (w s)(a_j) = w(a_j) - a_sj w(a_s)."""
        ws = w[s]
        return tuple(wj if a == 0 else tuple([x - a * y for x, y in zip(wj, ws)])
                     for wj, a in zip(w, self.cartan[s]))

    def element(self, word):
        """The element the word spells, reduced or not."""
        w = self.identity
        for s in word:
            w = self.times(w, s)
        return w

    def inversions(self, word) -> frozenset:
        """N(x) for the element x of a reduced word.  The step from w to
        w s adds the root w(a_s), which is positive iff the step is an
        ascent; a negative one means the word is not reduced, and raises
        RuntimeError."""
        w, found = self.identity, set()
        for s in word:
            root = w[s]
            if min(root) < 0:
                raise RuntimeError(f"word {list(word)} is not reduced")
            found.add(root)
            w = self.times(w, s)
        return frozenset(found)

    def reduced(self, w) -> list:
        """A reduced word for w.  w(a_s) < 0 iff w s is shorter than w, so
        peeling such right descents reaches e in length-of-w steps."""
        letters = []
        while w != self.identity:
            s = next(s for s, root in enumerate(w) if min(root) < 0)
            letters.append(s)
            w = self.times(w, s)
        return letters[::-1]

    def hull_size(self, roots) -> int:
        """|{x : N(x) is a subset of roots}| for a set of positive roots.
        The set is a lower set of the weak order, so it is enumerated by
        right ascents from e, one length at a time: x s with x(a_s) in
        roots.  Such a root is positive, so the step is an ascent."""
        level, count = {self.identity}, 0
        while level:
            count += len(level)
            level = {self.times(x, s) for x in level
                     for s, root in enumerate(x) if root in roots}
        return count
