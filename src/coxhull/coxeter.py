"""Coxeter matrices of the supported group types.

A Coxeter matrix is a symmetric matrix of generator orders m_ij with
m_ii = 1 and m_ij >= 2 off the diagonal (infinity allowed).  The four
supported types are the rank-3 triangle groups with off-diagonal orders
{3,3,3}, {2,4,4} and {2,3,6}, which tessellate the Euclidean plane, and
the rank-2 group with an infinite order, which acts on the real line.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from itertools import permutations

INF = float("inf")


class CoxeterMatrixError(ValueError):
    """Invalid Coxeter matrix input; the message names the entry at fault."""


class TypeTag(enum.Enum):
    A2Tilde = "a2t"
    C2Tilde = "c2t"
    G2Tilde = "g2t"
    I2Infinity = "i2inf"

    @property
    def code(self) -> str:
        return self.value

    @classmethod
    def from_code(cls, code: str) -> "TypeTag":
        for tag in cls:
            if tag.value == code:
                return tag
        raise ValueError(f"unknown type code {code!r}; expected one of "
                         f"{[t.value for t in cls]}")


class CoxeterMatrix(namedtuple("CoxeterMatrix", "rank entries")):
    __slots__ = ()  # entries: a rank x rank tuple of tuples of ints or INF

    def order(self, i, j):
        return self.entries[i][j]

    def automorphisms(self) -> list:
        """The permutations p of the generators with m_p(i)p(j) = m_ij, the
        identity first.  Each extends to the group automorphism s_i -> s_p(i),
        which fixes e and keeps lengths, so it keeps hulls and their sizes."""
        n = range(self.rank)
        return [p for p in permutations(n)
                if all(self.entries[p[i]][p[j]] == self.entries[i][j] for i in n for j in n)]


def _as_order(value):
    if value == "inf" or isinstance(value, float) and value == INF:
        return INF
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise CoxeterMatrixError(f"order entries must be integers or 'inf', got {value!r}")


def validate_matrix(raw) -> CoxeterMatrix:
    """Validate a square matrix of orders (``"inf"`` accepted as sentinel)."""
    rank = len(raw)
    if rank == 0 or any(len(row) != rank for row in raw):
        raise CoxeterMatrixError("matrix must be square and nonempty")
    entries = tuple(tuple(_as_order(v) for v in row) for row in raw)
    for i in range(rank):
        if entries[i][i] != 1:
            raise CoxeterMatrixError(
                f"entries[{i}][{i}]={entries[i][i]}, diagonal orders must be 1")
    for i in range(rank):
        for j in range(i + 1, rank):
            if entries[i][j] != entries[j][i]:
                raise CoxeterMatrixError(f"entries[{i}][{j}]={entries[i][j]} != "
                                         f"entries[{j}][{i}]={entries[j][i]}")
            if entries[i][j] < 2:
                raise CoxeterMatrixError(
                    f"entries[{i}][{j}]={entries[i][j]}, off-diagonal orders must be >= 2")
    return CoxeterMatrix(rank, entries)


def matrix_for(tag: TypeTag) -> CoxeterMatrix:
    """The canonical Coxeter matrix realized by build_group for this tag."""
    if tag is TypeTag.A2Tilde:
        return validate_matrix([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
    if tag is TypeTag.C2Tilde:
        return validate_matrix([[1, 2, 4], [2, 1, 4], [4, 4, 1]])
    if tag is TypeTag.G2Tilde:
        return validate_matrix([[1, 6, 3], [6, 1, 2], [3, 2, 1]])
    if tag is TypeTag.I2Infinity:
        return validate_matrix([[1, "inf"], ["inf", 1]])
    raise ValueError("no canonical matrix for unsupported type")
