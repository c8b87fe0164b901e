"""Brute-force Hochschild homology of graded F_p algebras.

The normalized complex C_n = A (x) Abar^n is finite in each internal degree
once every generator has positive degree, so homology is computed exactly by
sparse elimination, degree by degree.  This is the independent oracle the
multiplicative closed forms are checked against; no closed form enters it.

Each degree's complex splits further by weight, the sum of the slots'
exponent tuples, which every face keeps.  A weight block is walked from the
longest tensors down.  Each boundary is computed once, as an integer column
over its block's C_(n-1); d(d(t)) = 0 is checked on every tensor t by summing
those columns before d(t) is used.  Each d_n is eliminated once, on the same
columns, and only on the tensors that are not pivots of the echelon of
d_(n+1) (clearing, Chen-Kerber 2011, Bauer-Kerber-Reininghaus 2014).
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
    mono_mul, unit = alg.mono_mul, alg.unit_mono
    for i in range(n):
        prod = mono_mul(tens[i], tens[i + 1])
        if prod is None:
            continue
        m, c = prod
        if i > 0 and m == unit:
            continue  # degenerate; impossible with positive degrees
        put(tens[:i] + (m,) + tens[i + 2:], -c if i % 2 else c)
    prod = mono_mul(tens[n], tens[0])
    if prod is not None:
        m, c = prod
        # the last slot moves past all the others: total degree of the rest
        # is that of the weight minus the last slot's
        last = alg.total(tens[n])
        wrap = last * (alg.total(_weight(tens)) - last)
        put((m,) + tens[1:n], -c if (n + wrap) % 2 else c)
    return out


def _weight(tens: Tensor) -> tuple[int, ...]:
    """The sum of the slots' exponent tuples; every face keeps it, since
    mono_mul adds exponents."""
    return tuple(map(sum, zip(*tens)))


def _column(bd: dict[Tensor, int], idx: dict[Tensor, int]) -> dict[int, int]:
    """A boundary as a column over the block's C_(n-1), by index; a face
    outside the block takes the next free index, so that its own boundary
    is summed by the d o d check on the next step."""
    return {idx.setdefault(t, len(idx)): c for t, c in bd.items()}


def _boundary_of_boundary(p: int, length: int, above: list[dict[int, int]],
                          cols: list[dict[int, int]]) -> None:
    """Raise unless d(d(t)) = 0 for every tensor t of the given length:
    sum the columns (cols, by index over C_n, stray faces last) of the
    faces in d(t), so that a wrong boundary shows here first."""
    for col in above:
        acc: dict[int, int] = {}
        for i, c in col.items():
            for k, c2 in cols[i].items():
                acc[k] = acc.get(k, 0) + c * c2
        if any(v % p for v in acc.values()):
            raise VerificationError(
                f"boundary of boundary nonzero on a tensor of length {length}")


def hh_bruteforce(alg: Algebra, max_total_degree: int) -> PoincareSeries:
    """Hochschild homology dimensions by total degree (word length plus
    internal degree), exact up to the requested bound.

    Internal degree d needs lengths up to top = min(d, hi - d), and the
    walk starts at top + 1 to get rank d_(top+1).  The pivot row of the
    echelon of d_(n+2) at e_i is e_i plus later coordinates and lies in
    im d_(n+2), so d_(n+1)(e_i) is a combination of later columns: dropping
    those columns keeps rank d_(n+1).  Then dim H_n = |C_n| - rank d_n -
    rank d_(n+1), each rank eliminated once."""
    for g in alg.gens:
        if g.total <= 0:
            raise ValueError(
                f"generator {g.name} has nonpositive degree; the truncated "
                f"complex would be infinite")
    hi = max_total_degree
    by_deg = _monomials_by_degree(alg, hi)
    counts: dict[int, int] = {}
    for d in range(hi + 1):
        top = min(d, hi - d)
        blocks: dict[tuple[int, ...], list[list[Tensor]]] = {}
        for n in range(top + 2):
            for tns in _chain_basis(alg, by_deg, n, d):
                blocks.setdefault(_weight(tns),
                                  [[] for _ in range(top + 2)])[n].append(tns)
        for chains in blocks.values():
            # d of each tensor of C_(n+1) as a column over C_n, the pivots
            # of d_(n+2) among those tensors and the rank of d_(n+2)
            above: list[dict[int, int]] = []
            cleared: set[int] = set()
            rank_in = 0
            # C_n's tensors by index, then the stray faces of C_(n+1)
            idx = {tns: i for i, tns in enumerate(chains[top + 1])}
            # the last step, n = -1, closes C_0 with d_0 = 0
            for n in range(top + 1, -2, -1):
                size = len(chains[n]) if n >= 0 else 0
                below = {tns: i for i, tns in enumerate(chains[n - 1])} \
                    if n > 0 else {}
                cols = [_column(hochschild_boundary(alg, tns), below)
                        for tns in idx]
                _boundary_of_boundary(alg.p, n + 2, above, cols)
                ech = Echelon(alg.p, max(size, 1))
                # last column first: the new pivot then seldom sits in an
                # older row, so the echelon rarely has to clear it (on
                # hh 5 24 it never does)
                for j in range(len(above) - 1, -1, -1):
                    col = above[j]
                    if j in cleared or not col:
                        continue
                    if max(col) >= size:
                        raise VerificationError(
                            f"a face of a length-{n + 1} tensor leaves "
                            f"its degree and weight block")
                    ech.insert(col)
                hdim = len(above) - ech.rank - rank_in
                if hdim and n < top:
                    counts[n + 1 + d] = counts.get(n + 1 + d, 0) + hdim
                above, idx = cols[:size], below
                cleared, rank_in = set(ech.rows), ech.rank
    return PoincareSeries.from_counts(0, hi, counts)
