"""Symbolic verification of the two closed-form hull inequalities.

For the triangular complex the product inequality

    (xy + x - y^2 + 2y + 1)(ab + a - b^2 + b + 1)
        >= (x+a)(y+b) + (x+a) - (y+b)^2 + 2(y+b) + 1

is handled in two exact routes: the proof-side decomposition and
factorization are expanded and compared to the direct expansions as
polynomial identities, and the inequality itself is brute forced on an
integer box under its parity and shape constraints.

For the square-grid case-2 family the difference LHS - RHS, after the
reparametrization a = 4n+2, b = k+2, x = 4n+4q+5, y = k+p+3 over
non-negative integers, must expand to a fixed 16-term polynomial with
every coefficient strictly positive; positivity of the coefficients is
what proves the inequality on the whole admissible domain.  Both routes
work alike: the forms are called with polynomial arguments, here the
reparametrization itself, and expanded by plain arithmetic.  The expected
expansion is pinned term by term as a function of (k, n, p, q), and any
deviation is reported verbatim rather than corrected, so a transcription
error stays distinguishable from an implementation bug.

That pinned expansion is the paper's.  ``c2_paper_forms`` is the one place
its middle count 3(x-a+3) + (y-b-2)(x-a+5) is written, and it is one
chamber short of the enumerated hull.  The difference of the corrected
forms of ``formulas.c2_case2_forms`` is pinned next to it and goes through
the same check; it exceeds the paper's expansion by |Conv(u,v)| =
4kn + 4k + 8n + 4, so it is again 16 strictly positive terms.
"""

from __future__ import annotations

from .formulas import a2_sides_forms, c2_case2_forms
from .poly import MultiPoly

VARS_A2 = ("x", "y", "a", "b")
VARS_SUB = ("k", "n", "p", "q")


def case2_expected_difference(k, n, p, q):
    """Pinned expansion of the reparametrized case-2 difference (16 terms)."""
    return (16*k*n*p*q + 32*k*n*p + 32*k*n*q + 36*k*n + 32*n*p*q + 64*n*q
            + 60*n*p + 68*n + 16*k*p*q + 32*k*p + 28*k*q + 32*k
            + 12*p*q + 24*p + 20*q + 22)


def case2_corrected_difference(k, n, p, q):
    """Pinned expansion of the same difference with the corrected middle
    count (16 terms)."""
    return (16*k*n*p*q + 32*k*n*p + 32*k*n*q + 16*k*p*q + 32*n*p*q + 40*k*n
            + 32*k*p + 28*k*q + 60*n*p + 64*n*q + 12*p*q + 36*k + 76*n + 24*p
            + 20*q + 26)


class MismatchReport(AssertionError):
    """A computed expansion differs from its pinned form."""

    def __init__(self, label, expected, got):
        self.label = label
        self.differences = []
        monomials = set(expected.terms) | set(got.terms)
        for expo in sorted(monomials, reverse=True):
            want = expected.terms.get(expo, 0)
            have = got.terms.get(expo, 0)
            if want != have:
                self.differences.append((expected.monomial(expo), want, have))
        lines = [f"{label}: expansion mismatch"]
        for mono, want, have in self.differences:
            lines.append(f"  {mono}: expected {want}, got {have}")
        super().__init__("\n".join(lines))


def _vars(names):
    return [MultiPoly.var(names, v) for v in names]


# -- triangular-complex product inequality ----------------------------------

def a2_sides_poly():
    """Direct expansions of both sides of the product inequality."""
    return a2_sides_forms(*_vars(VARS_A2))


def a2_decomposed_lhs():
    """The proof-side regrouping of the left side."""
    x, y, a, b = _vars(VARS_A2)
    return ((x - y + 1) * (a - b + 2) * (y + 1) * b
            + 2 * y * (a - b + 2) * (b + 1)
            + (x - y + 1) * (a - b + 1) * (y + 1)
            - 2 * (y + 1) + 2)


def a2_factored_rhs():
    """The proof-side factorization of the right side."""
    x, y, a, b = _vars(VARS_A2)
    return (x - y + a - b + 3) * (y + b + 1) - 2


def verify_a2_identities() -> tuple[bool, bool]:
    """Whether the decomposed LHS and factored RHS match the direct
    expansions, as exact polynomial identities."""
    lhs, rhs = a2_sides_poly()
    return (a2_decomposed_lhs() == lhs, a2_factored_rhs() == rhs)


def a2_box_violations(limit: int):
    """Tuples in [0, limit]^4 meeting the constraints with LHS < RHS.
    ``formulas.a2_sides_forms`` is evaluated on integers at each tuple,
    never expanded, so this does not lean on the polynomial route."""
    bad = []
    for x in range(limit + 1):
        for y in range(limit + 1):
            if x < y - 1 or (x + y) % 2 != 1:
                continue
            for a in range(limit + 1):
                for b in range(limit + 1):
                    if a < b - 1 or (a + b) % 2 != 0 or a + b == 0:
                        continue
                    lhs, rhs = a2_sides_forms(x, y, a, b)
                    if lhs < rhs:
                        bad.append((x, y, a, b, lhs, rhs))
    return bad


# -- square-grid case-2 difference -------------------------------------------

def c2_paper_forms(a, b, x, y):
    """``formulas.c2_case2_forms`` with the paper's middle count, the one
    place it is written; it serves integers and polynomials alike."""
    size_uv, _, size_uvw = c2_case2_forms(a, b, x, y)
    return size_uv, 3 * (x - a + 3) + (y - b - 2) * (x - a + 5), size_uvw


def _verify_expansion(label, forms, pinned) -> MultiPoly:
    """uv*vw - uvw of the three-size forms at a=4n+2, b=k+2, x=4n+4q+5,
    y=k+p+3 on polynomials over (k, n, p, q), checked term by term against
    the pinned function.  Raises MismatchReport on any deviation."""
    k, n, p, q = _vars(VARS_SUB)
    size_uv, size_vw, size_uvw = forms(4 * n + 2, k + 2, 4 * n + 4 * q + 5, k + p + 3)
    diff = size_uv * size_vw - size_uvw
    expected = pinned(k, n, p, q)
    if diff != expected:
        raise MismatchReport(label, expected, diff)
    return diff


def verify_c2_expansion() -> MultiPoly:
    """The difference of ``c2_paper_forms``, checked against its pin."""
    return _verify_expansion("case-2 difference", c2_paper_forms,
                             case2_expected_difference)


def verify_c2_corrected_expansion() -> MultiPoly:
    """The difference of ``c2_case2_forms``, checked against its pin."""
    return _verify_expansion("corrected case-2 difference", c2_case2_forms,
                             case2_corrected_difference)


def c2_box_violations(limit: int):
    """Admissible tuples up to the limit with LHS < RHS; the domain is the
    reparametrization's image, i.e. includes y = b+1."""
    bad = []
    for a in range(2, limit + 1, 4):
        for x in range(a + 3, limit + 1, 4):
            for b in range(2, limit + 1):
                for y in range(b + 1, limit + 1):
                    size_uv, size_vw, size_uvw = c2_paper_forms(a, b, x, y)
                    if size_uv * size_vw < size_uvw:
                        bad.append((a, b, x, y, size_uv * size_vw, size_uvw))
    return bad
