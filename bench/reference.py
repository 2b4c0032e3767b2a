"""Reference answers computed apart from coxhull.

Nothing here imports the program.  Three sources:

* Bott's formula: the growth series of an affine Weyl group is
  W0(t) / prod_i (1 - t^e_i), with W0(t) = prod_i (1 + t + ... + t^e_i)
  the Poincare polynomial of the finite Weyl group and e_i its exponents.
  Summing coefficients up to r gives the ball size |B(r)|.
* An integer root-lattice representation built from each Coxeter matrix
  (a Cartan matrix with a_ij * a_ji = 4 cos^2(pi / m_ij)).  An element is
  stored as the images of the simple roots; ws is longer than w exactly
  when w(alpha_s) is a positive root (the descent test, Bjorner-Brenti,
  Combinatorics of Coxeter Groups, chs. 4 and 7).  That yields word
  lengths, reduced words and balls without any geometry.
* The paper's closed forms: the triangular pair counts behind the A2
  reduced triples, and the square-grid case-2 counts, with the middle one
  summed row by row.

Generator i is the reflection in the i-th wall of the base chamber, in
the order the program numbers its word digits: for c2t the walls y=0,
x=1 and y=x; for g2t the walls y=0, the 30-degree edge at the origin and
the 120-degree edge at (1,0).  The orders m_ij are read off the angles
between those walls.
"""

from __future__ import annotations

TYPES = ("a2t", "c2t", "g2t")

COXETER = {
    "a2t": ((1, 3, 3), (3, 1, 3), (3, 3, 1)),
    "c2t": ((1, 2, 4), (2, 1, 4), (4, 4, 1)),
    "g2t": ((1, 6, 3), (6, 1, 2), (3, 2, 1)),
}

# Exponents of the finite Weyl groups A2, B2 = C2 and G2.
EXPONENTS = {"a2t": (1, 2), "c2t": (1, 3), "g2t": (1, 5)}

# 4 cos^2(pi / m) for the orders that occur.
_PRODUCT = {2: 0, 3: 1, 4: 2, 6: 3}


def cartan(tag: str):
    """Integer Cartan matrix realizing the Coxeter matrix of `tag`.

    The lower-indexed generator of each edge gets -1, the other the rest
    of the product; the c2t and g2t diagrams are trees and the a2t one is
    symmetric, so the matrix is symmetrizable."""
    m = COXETER[tag]
    n = len(m)
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            p = _PRODUCT[m[i][j]]
            if p:
                a[i][j], a[j][i] = -1, -p
    return tuple(tuple(row) for row in a)


class RootRep:
    """Right multiplication, descents and reduced words in the root lattice.

    An element w is the tuple (w(alpha_0), ..., w(alpha_{n-1})), each an
    integer coefficient vector in the simple-root basis."""

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.a = cartan(tag)
        self.rank = len(self.a)
        n = self.rank
        self.identity = tuple(tuple(int(i == j) for i in range(n))
                              for j in range(n))

    def times(self, w, s: int):
        """w * s, using s(alpha_j) = alpha_j - a_sj alpha_s."""
        ws = w[s]
        out = []
        for j, col in enumerate(w):
            c = self.a[s][j]
            if j == s:
                out.append(tuple(-x for x in col))
            elif c:
                out.append(tuple(x - c * y for x, y in zip(col, ws)))
            else:
                out.append(col)
        return tuple(out)

    @staticmethod
    def _positive(root) -> bool:
        # A root has all coefficients >= 0 or all <= 0.
        return any(x > 0 for x in root)

    def ascends(self, w, s: int) -> bool:
        """True when l(ws) = l(w) + 1."""
        return self._positive(w[s])

    def element(self, word):
        w = self.identity
        for s in word:
            w = self.times(w, s)
        return w

    def length(self, word) -> int:
        """Coxeter length of the element spelt by an arbitrary word."""
        w, n = self.identity, 0
        for s in word:
            n += 1 if self.ascends(w, s) else -1
            w = self.times(w, s)
        return n

    def reduced(self, word) -> tuple:
        """A reduced word for the element spelt by `word`: peel right
        descents, lowest generator first."""
        w = self.element(word)
        out = []
        while w != self.identity:
            s = next(s for s in range(self.rank) if not self.ascends(w, s))
            out.append(s)
            w = self.times(w, s)
        return tuple(reversed(out))

    def distance(self, word_a, word_b) -> int:
        """Word-metric distance l(a^-1 b); generators are involutions, so
        a^-1 is spelt by the reversed word."""
        return self.length(tuple(reversed(word_a)) + tuple(word_b))

    def random_reduced(self, rng, length: int) -> tuple:
        """A reduced word of the given length, extended one ascent at a time."""
        w, word = self.identity, []
        for _ in range(length):
            s = rng.choice([s for s in range(self.rank) if self.ascends(w, s)])
            word.append(s)
            w = self.times(w, s)
        return tuple(word)

    def ball(self, radius: int):
        """Reduced words of every element of length <= radius, one word per
        element, ordered by length and then by the word."""
        layer = {self.identity: ()}
        out = [()]
        for _ in range(radius):
            nxt = {}
            for w, word in layer.items():
                for s in range(self.rank):
                    if self.ascends(w, s):
                        ws = self.times(w, s)
                        cand = word + (s,)
                        if ws not in nxt or cand < nxt[ws]:
                            nxt[ws] = cand
            layer = nxt
            out.extend(sorted(nxt.values()))
        return out


def _poly_mul(p, q, upto: int):
    out = [0] * (upto + 1)
    for i, x in enumerate(p[:upto + 1]):
        if x:
            for j, y in enumerate(q[:upto + 1 - i]):
                out[i + j] += x * y
    return out


def bott_ball_size(tag: str, radius: int) -> int:
    """|B(radius)| from Bott's formula W0(t) / prod (1 - t^e)."""
    series = [1] + [0] * radius
    for e in EXPONENTS[tag]:
        series = _poly_mul(series, [1] * (e + 1), radius)         # 1 + ... + t^e
        series = _poly_mul(series, [int(k % e == 0) for k in range(radius + 1)],
                           radius)                                   # 1 / (1 - t^e)
    return sum(series)


# -- the paper's closed forms -------------------------------------------------

def a2_pair_up(x: int, y: int) -> int:
    """Triangular pair hull from an upward origin, x+y even."""
    return x * y + x - y * y + y + 1


def a2_pair_down(x: int, y: int) -> int:
    """Triangular pair hull from a downward origin, x+y odd."""
    return x * y + x - y * y + 2 * y + 1


def a2_triple_counts(x: int, y: int, a: int, b: int):
    """(|Conv(u,v)|, |Conv(v,w)|, |Conv(u,v,w)|) for the reduced triple
    u = origin (downward), v = (x, y), w = (x+a, y+b): the triple hull is
    the pair hull of u and w."""
    if not (x >= y - 1 and a >= b - 1 and min(x, y, a, b) >= 0
            and (x + y) % 2 == 1 and a + b > 0 and (a + b) % 2 == 0):
        raise ValueError(f"not a reduced A2 triple: {(x, y, a, b)}")
    return a2_pair_down(x, y), a2_pair_up(a, b), a2_pair_down(x + a, y + b)


def c2_case2_counts(a: int, b: int, x: int, y: int):
    """Square-grid case 2: (|Conv(u,v)|, |Conv(v,w)|, |Conv(u,v,w)|).

    The middle count is the paper's row-by-row sum: a bottom row of
    x-a+4, y-b-2 full rows of x-a+5, then rows of x-a+4 and x-a+2."""
    if not (a % 4 == 2 and x % 4 == 1 and b >= 2 and y >= b + 2 and x >= a + 3):
        raise ValueError(f"not a case-2 configuration: {(a, b, x, y)}")
    size_uv = 2 * a + (b - 2) * (a + 2)
    size_vw = (x - a + 4) + (y - b - 2) * (x - a + 5) + (x - a + 4) + (x - a + 2)
    size_uvw = 3 * (x + 1) + (y - 3) * (x + 3)
    return size_uv, size_vw, size_uvw
