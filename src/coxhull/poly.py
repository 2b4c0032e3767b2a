"""Sparse multivariate polynomials with exact integer coefficients.

Terms are a map from exponent vectors (dense over the declared variable
list) to nonzero integer coefficients.  The variable list is fixed per
polynomial and binary operations require the same list, which keeps
exponent vectors positionally comparable.  Polynomials are built by
arithmetic on `MultiPoly.var` and integers, so an expression written for
integers expands unchanged; there is no parser.  Serialization uses
graded lexicographic term order so printed expansions are reproducible.
"""

from __future__ import annotations


class UnknownVariable(ValueError):
    pass


class MultiPoly:
    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        clean = {}
        if terms:
            for expo, coeff in terms.items():
                if coeff != 0:
                    expo = tuple(expo)
                    if len(expo) != len(self.variables):
                        raise ValueError("exponent vector length mismatch")
                    clean[expo] = clean.get(expo, 0) + coeff
        self.terms = {e: c for e, c in clean.items() if c != 0}

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

    def __rsub__(self, other):
        return (-self) + other

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

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def is_zero(self):
        return not self.terms

    # -- structure ----------------------------------------------------------

    def coefficient(self, **powers):
        """Coefficient of the monomial with the given variable powers."""
        for name in powers:
            if name not in self.variables:
                raise UnknownVariable(f"{name!r} is not among {self.variables}")
        expo = tuple(powers.get(v, 0) for v in self.variables)
        return self.terms.get(expo, 0)

    def sorted_terms(self):
        """Terms in graded lexicographic order, highest first."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def eval(self, assignment):
        """Exact integer evaluation; the assignment must cover every variable
        that actually occurs."""
        values = []
        for i, v in enumerate(self.variables):
            if v in assignment:
                values.append(assignment[v])
            elif any(e[i] for e in self.terms):
                raise UnknownVariable(f"no value for {v!r}")
            else:
                values.append(0)
        total = 0
        for expo, coeff in self.terms.items():
            prod = coeff
            for val, power in zip(values, expo):
                prod *= val ** power
            total += prod
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for expo, coeff in self.sorted_terms():
            factors = []
            for v, e in zip(self.variables, expo):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            mono = "*".join(factors)
            mag = abs(coeff)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            sign = "-" if coeff < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"MultiPoly({self.variables}, {str(self)!r})"


def check_nonneg_coeffs(p) -> bool:
    """True iff every stored coefficient is non-negative."""
    return all(c >= 0 for c in p.terms.values())
