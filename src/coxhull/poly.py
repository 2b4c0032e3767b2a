"""Sparse multivariate polynomials with exact integer coefficients.

Terms are a map from exponent vectors (dense over the declared variable
list) to nonzero integer coefficients.  The variable list is fixed per
polynomial and binary operations require the same list, which keeps
exponent vectors positionally comparable.  Polynomials are built by
arithmetic on `MultiPoly.var` and integers, so an expression written for
integers expands unchanged as long as no integer stands left of a minus;
there is no parser.  Serialization uses graded lexicographic term order so
printed expansions are reproducible.  Polynomials are only built, compared
and printed: numbers come from the same expressions called on integers.
"""

from __future__ import annotations


class UnknownVariable(ValueError):
    pass


class MultiPoly:
    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        self.terms = {tuple(e): c for e, c in (terms or {}).items() if c != 0}
        if any(len(e) != len(self.variables) for e in self.terms):
            raise ValueError("exponent vector length mismatch")

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, variables, value):
        zero = (0,) * len(tuple(variables))
        return cls(variables, {zero: value} if value else {})

    @classmethod
    def var(cls, variables, name):
        variables = tuple(variables)
        if name not in variables:
            raise UnknownVariable(f"{name!r} is not among {variables}")
        expo = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {expo: 1})

    # -- ring operations ----------------------------------------------------

    def _same_vars(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.variables, other)
        elif other.variables != self.variables:
            raise UnknownVariable(
                f"variable lists differ: {self.variables} vs {other.variables}")
        return other

    def __add__(self, other):
        other = self._same_vars(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return MultiPoly(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._same_vars(other))

    def __mul__(self, other):
        other = self._same_vars(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return MultiPoly(self.variables, terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    # -- structure ----------------------------------------------------------

    def sorted_terms(self):
        """Terms in graded lexicographic order, highest first."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def monomial(self, expo):
        """The monomial with the given exponent vector as printed, "1" for
        the constant one."""
        return "*".join(v if e == 1 else f"{v}^{e}"
                        for v, e in zip(self.variables, expo) if e) or "1"

    def __str__(self):
        parts = []
        for expo, coeff in self.sorted_terms():
            mono, mag = self.monomial(expo), abs(coeff)
            body = str(mag) if mono == "1" else mono if mag == 1 else f"{mag}*{mono}"
            parts.append(f"{'-' if coeff < 0 else '+'} {body}")
        if not parts:
            return "0"
        out = " ".join(parts)
        return out[2:] if out[0] == "+" else "-" + out[2:]

    def __repr__(self):
        return f"MultiPoly({self.variables}, {str(self)!r})"


def check_nonneg_coeffs(p) -> bool:
    """True iff every stored coefficient is non-negative."""
    return all(c >= 0 for c in p.terms.values())
