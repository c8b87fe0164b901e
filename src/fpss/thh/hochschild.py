"""Brute-force Hochschild homology of graded F_p algebras.

The normalized complex C_n = A (x) Abar^n is finite in each internal degree
once every generator has positive degree, so homology is computed exactly by
sparse elimination, degree by degree.  This is the independent oracle the
multiplicative closed forms are checked against; no closed form enters it.

One call works on small integers, not on exponent tuples.  It indexes the
monomials of total degree up to its bound in canonical order, so that a
tensor is a tuple of indices, and it multiplies once each pair of monomials
whose degrees sum to at most the bound, into a product table that the call
frees when it returns.  Each degree's complex splits further by weight, the
sum of the slots' exponent tuples, which every face keeps; a weight is one
integer, the sum of the slots' exponents written in base bound + 1.

A weight block is walked from the longest tensors down.  Each boundary is
computed once, straight into an integer column over its block's C_(n-1);
d(d(t)) = 0 is checked on every tensor t by summing those columns on one
accumulator before d(t) is used.  Each d_n is eliminated once, on the same
columns, and only on the tensors that are not pivots of the echelon of
d_(n+1) (clearing, Chen-Kerber 2011, Bauer-Kerber-Reininghaus 2014).
"""
from __future__ import annotations

from typing import NamedTuple

from ..fp_linalg import Echelon
from ..graded import Algebra, Monomial, PoincareSeries
from ..specseq import VerificationError

Tensor = tuple[int, ...]


class Products(NamedTuple):
    """The monomials of total degree at most hi by index, and their products.

    mons is in canonical order (`Algebra.key`), so index 0 is the unit and
    the monomials of degree d have the indices first[d] .. first[d + 1] - 1.
    rows[i][j] is the product of mons[i] and mons[j] as (index, coefficient),
    or None where it vanishes, for each j whose degree sum with i is at most
    hi.  odd[i] is the parity of mons[i]'s degree, and codes[i] its
    exponents e_k as the integer sum e_k (hi + 1)^k."""
    p: int
    mons: list[Monomial]
    first: list[int]
    rows: list[list[tuple[int, int] | None]]
    odd: list[int]
    codes: list[int]


def _products(alg: Algebra, hi: int) -> Products:
    by_deg = alg.basis_monomials_by_total(0, hi)
    mons = [m for d in range(hi + 1) for m in by_deg[d]]
    degs = [d for d in range(hi + 1) for _ in by_deg[d]]
    first = [0]
    for d in range(hi + 1):
        first.append(first[-1] + len(by_deg[d]))
    pos = {m: i for i, m in enumerate(mons)}
    mono_mul = alg.mono_mul
    rows = []
    for a, da in zip(mons, degs):
        row: list[tuple[int, int] | None] = []
        for b in mons[:first[hi - da + 1]]:
            prod = mono_mul(a, b)
            row.append(None if prod is None else (pos[prod[0]], prod[1]))
        rows.append(row)
    codes = [sum(e * (hi + 1) ** k for k, e in enumerate(m)) for m in mons]
    return Products(alg.p, mons, first, rows, [d % 2 for d in degs], codes)


def _chain_basis(table: Products, n: int, d: int) -> dict[int, list[Tensor]]:
    """The basis tensors a0 (x) a1 (x) ... (x) an of internal degree d, with
    the inner slots running over nonunit monomials, by weight, each list in
    lexicographic order of indices.  A slot takes a degree only if what it
    leaves is a sum of one nonunit degree per slot left; the last slot is
    not searched: it runs over the monomials of the degree the others
    leave."""
    out: dict[int, list[Tensor]] = {}
    if n < 0 or d < 0:
        return out
    first, codes = table.first, table.codes
    if n == 0:
        for j in range(first[d], first[d + 1]):
            out.setdefault(codes[j], []).append((j,))
        return out
    filled = [e for e in range(1, d + 1) if first[e] < first[e + 1]]
    # reach[k]: the sums up to d of exactly k degrees of nonunit monomials
    reach = [{0}]
    for _ in range(n):
        reach.append({r + e for r in reach[-1] for e in filled if r + e <= d})

    def rec(slot: int, rem: int, acc: Tensor, weight: int):
        left = reach[n - slot]
        for deg in filled if slot else [0] + filled:
            if deg > rem:
                break
            if rem - deg not in left:
                continue
            if slot + 1 < n:
                for i in range(first[deg], first[deg + 1]):
                    rec(slot + 1, rem - deg, acc + (i,), weight + codes[i])
                continue
            last = range(first[rem - deg], first[rem - deg + 1])
            for i in range(first[deg], first[deg + 1]):
                head, w = acc + (i,), weight + codes[i]
                for j in last:
                    out.setdefault(w + codes[j], []).append(head + (j,))

    rec(0, d, (), 0)
    return out


def hochschild_boundary(table: Products, tens: Tensor,
                        idx: dict[Tensor, int]) -> dict[int, int]:
    """Boundary of one basis tensor: inner multiplications with alternating
    signs, plus the wrap-around face with its Koszul sign, each product read
    from the table, as a column keyed by each face's index in idx (C_(n-1)
    of the block).  A face outside idx takes the next free index, so that
    the d o d check sums its own boundary on the next step."""
    p, rows = table.p, table.rows
    n = len(tens) - 1
    out: dict[int, int] = {}
    if n == 0:
        return out
    index = idx.setdefault
    # no inner slot is the unit and every degree is positive, so no inner
    # face is degenerate, and two inner faces differ in the first slot they
    # multiply into; only the wrap-around face can meet another
    for i in range(n):
        prod = rows[tens[i]][tens[i + 1]]
        if prod is not None:
            k, c = prod
            out[index(tens[:i] + (k,) + tens[i + 2:], len(idx))] = \
                p - c if i % 2 else c
    last = tens[n]
    prod = rows[last][tens[0]]
    if prod is not None:
        k, c = prod
        # the last slot moves past all the others: a sign when its degree
        # and theirs are both odd
        odd = table.odd
        if (n + (odd[last] and sum(map(odd.__getitem__, tens[:n])))) % 2:
            c = p - c
        face = index((k,) + tens[1:n], len(idx))
        v = (out.get(face, 0) + c) % p
        if v:
            out[face] = v
        else:
            del out[face]
    return out


def _boundary_of_boundary(p: int, length: int, above: list[dict[int, int]],
                          cols: list[dict[int, int]], width: int) -> None:
    """Raise unless d(d(t)) = 0 for every tensor t of the given length:
    sum the columns (cols, by index over C_n, stray faces last) of the
    faces in d(t), so that a wrong boundary shows here first.  The sums
    share one accumulator over the width indices of C_(n-1) and its stray
    faces; each entry a sum touches is tested mod p and reset."""
    acc = [0] * width
    for col in above:
        touched: list[int] = []
        touch = touched.append
        for i, c in col.items():
            for k, c2 in cols[i].items():
                if not acc[k]:
                    touch(k)
                acc[k] += c * c2
        for k in touched:
            if acc[k] % p:
                raise VerificationError("boundary of boundary nonzero on "
                                        f"a tensor of length {length}")
            acc[k] = 0


def hh_bruteforce(alg: Algebra, max_total_degree: int) -> PoincareSeries:
    """Hochschild homology dimensions by total degree (word length plus
    internal degree), exact up to the requested bound.

    A tensor is a tuple of indices into the call's monomial list, its
    faces are read from the call's product table, and its weight is one
    integer (see the module docstring).  Each C_n(d) comes split into
    weight blocks, each in lexicographic order of indices, which is the
    canonical order slot by slot.

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
    table = _products(alg, hi)
    counts: dict[int, int] = {}
    for d in range(hi + 1):
        top = min(d, hi - d)
        blocks: dict[int, list[list[Tensor]]] = {}
        for n in range(top + 2):
            for weight, tensors in _chain_basis(table, n, d).items():
                if weight not in blocks:
                    blocks[weight] = [[] for _ in range(top + 2)]
                blocks[weight][n] = tensors
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
                cols = [hochschild_boundary(table, tns, below) for tns in idx]
                _boundary_of_boundary(alg.p, n + 2, above, cols, len(below))
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
