"""Exact sparse linear algebra over the prime field F_p.

Scalars are plain integers in [0, p).  All basis choices are deterministic
functions of the given row/column order.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from typing import Sequence


class Echelon:
    """Mutable reduced-echelon basis of a subspace of F_p^n, keyed by pivot."""

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        self.rows: dict[int, dict[int, int]] = {}
        self.pivots: list[int] = []  # the keys of rows, ascending

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict[int, int]) -> dict[int, int]:
        """Fully reduce vec against the stored rows; vec is not modified.

        Each stored row is zero at every other pivot, so clearing one pivot
        never brings in another: one pass over the pivots in vec's support
        suffices."""
        p = self.p
        rows = self.rows
        out = {c: v % p for c, v in vec.items() if v % p}
        for piv in [c for c in out if c in rows]:
            coef = out[piv]
            row = rows[piv]
            for c, v in row.items():
                w = (out.get(c, 0) - coef * v) % p
                if w:
                    out[c] = w
                else:
                    out.pop(c, None)
        return out

    def insert(self, vec: dict[int, int]) -> int | None:
        """Insert vec's span; return the new pivot column, or None if dependent."""
        red = self.reduce(vec)
        if not red:
            return None
        piv = min(red)
        if piv >= self.n:
            raise ValueError(f"vector coordinate {piv} outside ambient size {self.n}")
        inv = pow(red[piv], -1, self.p)
        row = {c: (v * inv) % self.p for c, v in red.items()}
        # keep the basis reduced: clear the new pivot from older rows.  A
        # row is zero left of its pivot, so only rows pivoted below piv can
        # hold it
        pivots = self.pivots
        for opiv in pivots[:bisect_left(pivots, piv)]:
            orow = self.rows[opiv]
            coef = orow.get(piv)
            if coef:
                for c, v in row.items():
                    w = (orow.get(c, 0) - coef * v) % self.p
                    if w:
                        orow[c] = w
                    else:
                        orow.pop(c, None)
        insort(pivots, piv)
        self.rows[piv] = row
        return piv


def dense_rank(p: int, rows: Sequence[Sequence[int]]) -> int:
    """Textbook dense Gaussian elimination; independent oracle for tests."""
    mat = [[v % p for v in row] for row in rows]
    nr = len(mat)
    nc = len(mat[0]) if mat else 0
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [(v * inv) % p for v in mat[r]]
        for i in range(nr):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == nr:
            break
    return r
