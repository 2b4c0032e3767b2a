"""Hulls in the weak order, from the Cartan matrix alone.

By Tits' convexity theorem a set of chambers is convex iff it is an
intersection of roots (half-apartments).  Write N(x) for the inversion
set of x: the positive roots b with x^-1(b) negative, one for each wall
between e and x.  For a point set S that holds e,

    Conv(S) = {x : N(x) is a subset of the union of N(s), s in S},

and by left translation |Conv(v, w)| = |Conv(e, v^-1 w)|.  So hulls that
hold e, and all hull sizes, follow from an integer Cartan matrix, with no
geometry: this module reads nothing but the Coxeter matrix.

An element w is realized as the tuple of its images w(a_1), ..., w(a_n)
of the simple roots, each a tuple of integer coefficients over the simple
roots; a root is positive iff its coefficients are >= 0.  A `RootSystem`
gives each element it meets an int id (the identity is 0) and each
positive root one bit, and keeps per id the ascent bits (the bit of
w(a_s), or 0 where s is a descent) and the right neighbours w s, so an
inversion set is an int mask and each step w -> w s is computed at most
once per instance.  Words are sequences of 0-based generator indices.

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
    """Elements, inversion sets and weak-order hulls of one Coxeter
    group, realized on its root lattice by s_i(a_j) = a_j - a_ij a_i."""

    def __init__(self, matrix) -> None:
        self.cartan = cartan(matrix)
        n = matrix.rank
        self.identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        self._ids, self._elements, self._next = {self.identity: 0}, [self.identity], [[None] * n]
        self._bits = {a: 1 << j for j, a in enumerate(self.identity)}
        self._ascents = [list(self._bits.values())]

    def times(self, w, s: int):
        """The element w s_s: (w s)(a_j) = w(a_j) - a_sj w(a_s)."""
        ws = w[s]
        return tuple(wj if a == 0 else tuple([x - a * y for x, y in zip(wj, ws)])
                     for wj, a in zip(w, self.cartan[s]))

    def _step(self, k: int, s: int) -> int:
        """The id of x s for the element x of id k, interned on first use."""
        ks = self._next[k][s]
        if ks is None:
            w = self.times(self._elements[k], s)
            ks = self._next[k][s] = self._ids.setdefault(w, len(self._elements))
            if ks == len(self._elements):
                self._elements.append(w)
                self._next.append([None] * len(w))
                self._ascents.append([0 if min(root) < 0 else
                                      self._bits.setdefault(root, 1 << len(self._bits))
                                      for root in w])
            self._next[ks][s] = k
        return ks

    def element(self, word) -> int:
        """The id of the element the word spells, reduced or not."""
        k = 0
        for s in word:
            k = self._step(k, s)
        return k

    def walk(self, word) -> tuple:
        """The id of the element x of a reduced word, and N(x) as a mask.
        Each step w -> w s adds the root w(a_s), positive iff the step is an
        ascent; a descent means the word is not reduced, and raises RuntimeError."""
        k = mask = 0
        for s in word:
            bit = self._ascents[k][s]
            if not bit:
                raise RuntimeError(f"word {list(word)} is not reduced")
            mask |= bit
            k = self._step(k, s)
        return k, mask

    def reduced(self, k: int) -> list:
        """A reduced word for the element of id k, by peeling right descents
        (w(a_s) < 0 iff w s is shorter than w).  An element other than e
        without one raises RuntimeError: the realization would be wrong."""
        letters = []
        while k:
            if 0 not in self._ascents[k]:
                raise RuntimeError(f"element {self._elements[k]} has no descent")
            s = self._ascents[k].index(0)
            letters.append(s)
            k = self._step(k, s)
        return letters[::-1]

    def lower_set(self, mask: int) -> set:
        """The ids of {x : N(x) is a subset of the mask's roots}.  The set
        is a lower set of the weak order, so it is enumerated by right
        ascents from e, one length at a time: x s with x(a_s) in the mask.
        Such a root is positive, so the step is an ascent, and x s is not e."""
        level, found, ascents, nxt = {0}, set(), self._ascents, self._next
        while level:
            found |= level
            level = {nxt[x][s] or self._step(x, s) for x in level
                     for s, bit in enumerate(ascents[x]) if bit & mask}
        return found

    def interval_sizes(self, ids, lengths) -> list:
        """|[e, x]|, the size of {y : N(y) is a subset of N(x)}, for each id x
        listed with its length: x and the intervals of its lower covers x s,
        s a right descent, as bits over list positions, one length at a time.
        An id listed twice, or a lower cover not listed, raises RuntimeError."""
        sizes, shorter, layer, length = [0] * len(ids), {}, {}, 0
        for p in sorted(range(len(ids)), key=lengths.__getitem__):
            if lengths[p] != length:
                shorter, layer, length = layer, {}, lengths[p]
            x, bits = ids[p], 1 << p
            for xs in [self._step(x, s) for s, bit in enumerate(self._ascents[x]) if not bit]:
                if xs not in shorter:
                    raise RuntimeError(f"{self.reduced(xs)} below {self.reduced(x)} is not listed")
                bits |= shorter[xs]
            if layer.setdefault(x, bits) != bits:
                raise RuntimeError(f"element {self.reduced(x)} is listed twice")
            sizes[p] = bits.bit_count()
        return sizes
