"""Brute-force Hochschild homology of graded F_p algebras.

The normalized complex C_n = A (x) Abar^n is finite in each internal degree
once every generator has positive degree, so homology is computed exactly by
sparse elimination, degree by degree.  This is the independent oracle the
multiplicative closed forms are checked against.
"""
from __future__ import annotations

from ..fp_linalg import Echelon
from ..graded import Algebra, Monomial, PoincareSeries
from ..specseq import VerificationError

Tensor = tuple[Monomial, ...]


def _monomials_by_degree(alg: Algebra, hi: int) -> dict[int, list[Monomial]]:
    return alg.basis_monomials_by_total(0, hi)


def _chain_basis(alg: Algebra, by_deg: dict[int, list[Monomial]],
                 n: int, d: int) -> list[Tensor]:
    """Basis tensors a0 (x) a1 (x) ... (x) an of internal degree d, with the
    inner slots running over nonunit monomials."""
    if n < 0 or d < 0:
        return []
    out: list[Tensor] = []

    def rec(slot: int, rem: int, acc: list[Monomial]):
        if slot == n + 1:
            if rem == 0:
                out.append(tuple(acc))
            return
        lo = 0 if slot == 0 else 1
        for deg in range(lo, rem - (n - slot) + 1):
            for m in by_deg.get(deg, ()):
                acc.append(m)
                rec(slot + 1, rem - deg, acc)
                acc.pop()

    rec(0, d, [])
    return out


def hochschild_boundary(alg: Algebra, tens: Tensor) -> dict[Tensor, int]:
    """Boundary of one basis tensor: inner multiplications with alternating
    signs, plus the wrap-around face with its Koszul sign."""
    p = alg.p
    n = len(tens) - 1
    out: dict[Tensor, int] = {}

    def put(tensor: Tensor, coeff: int):
        v = (out.get(tensor, 0) + coeff) % p
        if v:
            out[tensor] = v
        else:
            out.pop(tensor, None)

    if n == 0:
        return out
    for i in range(n):
        prod = alg.mono_mul(tens[i], tens[i + 1])
        if prod is None:
            continue
        m, c = prod
        if i > 0 and m == alg.unit_mono:
            continue  # degenerate; impossible with positive degrees
        sign = -1 if i % 2 else 1
        put(tens[:i] + (m,) + tens[i + 2:], sign * c)
    prod = alg.mono_mul(tens[n], tens[0])
    if prod is not None:
        m, c = prod
        wrap = alg.total(tens[n]) * sum(alg.total(x) for x in tens[:n])
        sign = -1 if (n + wrap) % 2 else 1
        put((m,) + tens[1:n], sign * c)
    return out


def hh_bruteforce(alg: Algebra, max_total_degree: int) -> PoincareSeries:
    """Hochschild homology dimensions by total degree (word length plus
    internal degree), exact up to the requested bound."""
    for g in alg.gens:
        if g.total <= 0:
            raise ValueError(
                f"generator {g.name} has nonpositive degree; the truncated "
                f"complex would be infinite")
    hi = max_total_degree
    by_deg = _monomials_by_degree(alg, hi)
    counts: dict[int, int] = {}
    for d in range(hi + 1):
        for n in range(0, min(d, hi - d) + 1):
            basis = _chain_basis(alg, by_deg, n, d)
            if not basis:
                continue
            below = _chain_basis(alg, by_deg, n - 1, d)
            above = _chain_basis(alg, by_deg, n + 1, d)
            idx_below = {tns: i for i, tns in enumerate(below)}
            idx = {tns: i for i, tns in enumerate(basis)}
            out_ech = Echelon(alg.p, max(len(below), 1))
            for tns in basis:
                col = {idx_below[t2]: c
                       for t2, c in hochschild_boundary(alg, tns).items()}
                out_ech.insert(col)
            in_ech = Echelon(alg.p, len(basis))
            for tns in above:
                col = {idx[t2]: c
                       for t2, c in hochschild_boundary(alg, tns).items()}
                in_ech.insert(col)
            hdim = len(basis) - out_ech.rank - in_ech.rank
            if hdim < 0:
                raise VerificationError("boundary of boundary nonzero")
            if hdim:
                counts[n + d] = counts.get(n + d, 0) + hdim
    return PoincareSeries.from_counts(0, hi, counts)
