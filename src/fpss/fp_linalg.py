"""Exact sparse linear algebra over the prime field F_p.

Scalars are plain integers in [0, p).  All basis choices are deterministic
functions of the given row/column order, so every quotient basis chosen
downstream is reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from .numerics import is_prime

Vector = tuple[int, ...]


@dataclass(frozen=True)
class SparseMatrix:
    """Matrix over F_p with entries stored as (row, col, value), row-major.

    Invariants: p prime, indices in range, values in (0, p), no duplicate
    coordinates, canonical sort order (for equality testing).
    """

    p: int
    nrows: int
    ncols: int
    entries: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        if self.nrows < 0 or self.ncols < 0:
            raise ValueError("negative matrix dimensions")
        seen = set()
        for r, c, v in self.entries:
            if not (0 <= r < self.nrows and 0 <= c < self.ncols):
                raise ValueError(f"entry ({r},{c}) out of range")
            if not (0 < v < self.p):
                raise ValueError(f"entry value {v} not reduced mod {self.p}")
            if (r, c) in seen:
                raise ValueError(f"duplicate entry at ({r},{c})")
            seen.add((r, c))
        object.__setattr__(self, "entries", tuple(sorted(self.entries)))

    @classmethod
    def from_rows(cls, p: int, nrows: int, ncols: int,
                  rows: Iterable[dict[int, int]]) -> "SparseMatrix":
        ents = []
        for r, row in enumerate(rows):
            for c, v in row.items():
                v %= p
                if v:
                    ents.append((r, c, v))
        return cls(p, nrows, ncols, tuple(ents))

    @classmethod
    def from_dense(cls, p: int, rows: Sequence[Sequence[int]]) -> "SparseMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        ents = [(r, c, v % p) for r, row in enumerate(rows)
                for c, v in enumerate(row) if v % p]
        return cls(p, nrows, ncols, tuple(ents))

    def row_dicts(self) -> list[dict[int, int]]:
        rows: list[dict[int, int]] = [dict() for _ in range(self.nrows)]
        for r, c, v in self.entries:
            rows[r][c] = v
        return rows

    def to_dense(self) -> list[list[int]]:
        out = [[0] * self.ncols for _ in range(self.nrows)]
        for r, c, v in self.entries:
            out[r][c] = v
        return out


class Echelon:
    """Mutable reduced-echelon basis of a subspace of F_p^n, keyed by pivot."""

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        self.rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict[int, int]) -> dict[int, int]:
        """Fully reduce vec against the stored rows; vec is not modified."""
        p = self.p
        out = {c: v % p for c, v in vec.items() if v % p}
        for piv in sorted(self.rows):
            coef = out.get(piv)
            if not coef:
                continue
            row = self.rows[piv]
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
        # keep the basis reduced: clear the new pivot from older rows
        for opiv, orow in self.rows.items():
            coef = orow.get(piv)
            if coef:
                for c, v in row.items():
                    w = (orow.get(c, 0) - coef * v) % self.p
                    if w:
                        orow[c] = w
                    else:
                        orow.pop(c, None)
        self.rows[piv] = row
        return piv

    def contains(self, vec: dict[int, int]) -> bool:
        return not self.reduce(vec)


def rref(m: SparseMatrix) -> tuple[SparseMatrix, tuple[int, ...], int]:
    """Reduced row-echelon form, pivot columns, and rank."""
    ech = Echelon(m.p, m.ncols)
    for row in m.row_dicts():
        if row:
            ech.insert(row)
    pivots = tuple(sorted(ech.rows))
    rows = [ech.rows[piv] for piv in pivots]
    out = SparseMatrix.from_rows(m.p, m.nrows, m.ncols, rows)
    return out, pivots, len(pivots)


def rank(m: SparseMatrix) -> int:
    return rref(m)[2]


def kernel_basis(m: SparseMatrix) -> list[Vector]:
    """Deterministic kernel basis: one vector per free column, ascending,
    with that free coordinate set to 1."""
    red, pivots, _ = rref(m)
    pivot_set = set(pivots)
    rows = {min(r): r for r in red.row_dicts() if r}
    out: list[Vector] = []
    for free in range(m.ncols):
        if free in pivot_set:
            continue
        vec = [0] * m.ncols
        vec[free] = 1
        for piv in pivots:
            coef = rows[piv].get(free, 0)
            if coef:
                vec[piv] = (-coef) % m.p
        out.append(tuple(vec))
    return out


def quotient_basis(ambient: Sequence[Hashable],
                   subspace: Iterable[Sequence[int] | dict[int, int]],
                   p: int) -> list[Hashable]:
    """Labels of ambient/subspace: the non-pivot ambient ids after
    echelonizing the subspace against the ambient order."""
    ech = Echelon(p, len(ambient))
    for vec in subspace:
        if not isinstance(vec, dict):
            if len(vec) > len(ambient) and any(v % p for v in vec[len(ambient):]):
                raise ValueError("subspace vector outside ambient span")
            vec = {i: v for i, v in enumerate(vec) if v % p}
        if vec and max(vec) >= len(ambient) and any(
                v % p for c, v in vec.items() if c >= len(ambient)):
            raise ValueError("subspace vector outside ambient span")
        ech.insert(vec)
    return [label for i, label in enumerate(ambient) if i not in ech.rows]


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
