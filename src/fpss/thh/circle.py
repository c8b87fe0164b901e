"""Circle-limit pages and the two exhaustive degree-bookkeeping checks.

The circle pages are limits of the cyclic-group towers over the tower
height.  Inside a bounded region the free exponent of every class is
bounded, so only finitely many tower blocks meet the region and the limit
page truncated to those blocks is exact there.
"""
from __future__ import annotations

from functools import lru_cache

from ..numerics import rho, vp
from ..specseq import Region
from .tate import (BOTH, IU, PLAIN_E, TOWERS, Summand, TateForm, tate_ambient,
                   tower_blocks, tower_form)


def _free_exponent_bound(p: int, region: Region) -> int:
    """Upper bound on |pure t exponent| and |pure mu2 exponent| in-region."""
    c_bound = (region.hi - region.s_lo) // (2 * p * p - 2) + 4
    j_bound = (max(abs(region.s_lo), abs(region.s_hi)) + 1) // 2 + c_bound + 4
    m_bound = (region.hi + abs(region.s_lo)) // (2 * p * p) + c_bound + 4
    return max(j_bound, m_bound)


def blocks_meeting(p: int, region: Region) -> int:
    """Largest tower block index with any class in the region."""
    bound = _free_exponent_bound(p, region)
    k = 2
    while p ** (2 * k - 2) <= bound:
        k += 1
    return k


def comparison_region(p: int, lo: int, hi: int, conv: str) -> Region:
    """Region for closed-form comparisons: several tmu2 periods deep."""
    c_max = (hi - lo) // (2 * p * p - 2) + 30
    return Region(lo, hi, TOWERS[conv].s_floor(p, lo, c_max), hi + 4)


@lru_cache(maxsize=None)
def s1_einf(p: int, kmax: int, conv: str) -> TateForm:
    """Final page of the circle tower of one convention, blocks up to index
    kmax."""
    sums = tower_blocks(conv, p, (0,), kmax, kmax)
    sums.append(Summand((0,), BOTH, PLAIN_E, None, ("zero",)))
    return TateForm(f"{conv}:s1:final:{kmax}", 10 ** 9, tate_ambient(p, 0),
                    conv, tuple(sums))


def _u_free_dims(form: TateForm, region: Region) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    for bd, m in form.iter_region(region):
        if not m[IU]:
            out[bd] = out.get(bd, 0) + 1
    return out


def s1_limits(p: int, lo: int, hi: int, conv: str) -> tuple[bool, list[str]]:
    """Stabilization: the u-free part of the height-n tower's final page
    agrees bidegree-wise with the circle page inside the window, for every
    window-sufficient height."""
    region = comparison_region(p, lo, hi, conv)
    kmax = blocks_meeting(p, region)
    want = _u_free_dims(s1_einf(p, kmax, conv), region)
    problems: list[str] = []
    for n in (kmax, kmax + 1):
        got = _u_free_dims(tower_form(p, n, conv, "Einf"), region)
        for bd in sorted(set(want) | set(got)):
            if want.get(bd, 0) != got.get(bd, 0):
                problems.append(
                    f"height {n}, (s={bd[0]}, t={bd[1]}): tower "
                    f"{got.get(bd, 0)}, circle {want.get(bd, 0)}")
    return not problems, problems


def lemma_78_check(p: int, n: int, lo: int, hi: int) -> tuple[bool, list[str]]:
    """For every exponent j in the window with valuation 2n-2: no class of
    the final homotopy fixed point page shares the total degree of
    (tmu2)^rho(2n-1) mu2^j with a more negative column."""
    form = tower_form(p, n, "hofix", "Einf")
    alg = form.algebra
    problems: list[str] = []
    candidates = 0
    for j in range(lo, hi + 1):
        if j == 0 or vp(p, j) != 2 * n - 2:
            continue
        candidates += 1
        c_y = rho(p, 2 * n - 1)
        total = (2 * p * p - 2) * c_y + 2 * p * p * j
        s_y = -2 * c_y
        for (s, _), m in form.iter_region(
                form.total_region(total, total)._replace(s_hi=s_y - 1)):
            problems.append(
                f"j={j}: class {alg.mono_str(m)} in degree {total} has "
                f"column {s} below {s_y}")
    return not problems, problems or [f"{candidates} exponents checked"]


def lemma_79_check(p: int, n: int, lo: int, hi: int) -> tuple[bool, list[str]]:
    """For every exponent i in the window with valuation 2n: among the
    monomials of the surviving tower summand one total degree above
    (tmu2)^rho(2n-1) t^i, in columns admissible for a later differential,
    exactly the eps1b class with t-exponent p^(2n+1) - p^(2n+2) + i is left."""
    alg = tate_ambient(p, n + 1)
    summand = TateForm(
        "lemma79:candidates", 2, alg, "tate",
        (Summand((0, 1), (0, 1), PLAIN_E, None, ("vp_ge", 2 * n)),))
    problems: list[str] = []
    candidates = 0
    for i in range(lo, hi + 1):
        if i == 0 or vp(p, i) != 2 * n:
            continue
        candidates += 1
        c_z = rho(p, 2 * n - 1)
        total_z = (2 * p * p - 2) * c_z - 2 * i
        t_z = 2 * p * p * c_z
        t_cap = t_z - 2 * rho(p, 2 * n) - 1
        # internal degree <= t_cap is column >= total - t_cap; no class of
        # the summand has negative internal degree
        total = total_z + 1
        found = sorted(m for _, m in summand.iter_region(
            Region(total, total, total - t_cap, total)))
        expect_j = p ** (2 * n + 1) - p ** (2 * n + 2) + i
        expect = (0, expect_j, 0, 0, 0, 0, 1)
        if found != [expect]:
            got = ", ".join(alg.mono_str(m) for m in found) or "nothing"
            problems.append(f"i={i}: candidate sources {got}")
    return not problems, problems or [f"{candidates} exponents checked"]

