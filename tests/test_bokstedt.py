import time

import pytest

from fpss.comodule import RingId
from fpss.graded import PoincareSeries
from fpss.specseq import Region, bidegree_table
from fpss.thh.bokstedt import (bokstedt_e2_page, bokstedt_einf_page,
                               bokstedt_run)
from fpss.thh.hochschild import hh_bruteforce

P = 5


def ps_from_monomials(alg, monomials, lo, hi):
    """The Poincare series of a list of monomials, degrees lo..hi."""
    counts = {}
    for m in monomials:
        d = alg.total(m)
        if lo <= d <= hi:
            counts[d] = counts.get(d, 0) + 1
    return PoincareSeries.from_counts(lo, hi, counts)


def test_e2_row_zero_is_ring_homology():
    page = bokstedt_e2_page(P, RingId.HZP_MOD, 30)
    # column 0 in low internal degrees: exactly the dual Steenrod monomials
    assert [len(page.basis_at(0, t)) for t in range(11)] == \
        [1, 1, 0, 0, 0, 0, 0, 0, 1, 2, 1]


def test_e2_suspension_class_position():
    page = bokstedt_e2_page(P, RingId.ELL, 30)
    basis = page.basis_at(1, 2 * P - 2)
    assert [page.algebra.mono_str(m) for m in basis] == ["sbxi1"]


def test_empty_window_is_empty():
    page = bokstedt_e2_page(P, RingId.ELL, 40)
    assert list(page.iter_region(Region(35, 34, 0, 40))) == []


@pytest.mark.parametrize("ring", list(RingId))
def test_runs_match_final_forms(ring):
    cmp_ = bokstedt_run(P, ring, 0, 26)
    assert cmp_.passed, [str(m) for m in cmp_.mismatches[:5]]


def test_e2_agrees_with_hochschild_oracle():
    # truncate the ring homology to generators of degree <= 9 and compare
    # the enumerated starting page with the brute-force complex
    hi = 12
    for ring in (RingId.HZP_MOD, RingId.ELL_MOD_P):
        page = bokstedt_e2_page(P, ring, hi)
        alg = page.algebra
        small = [g for g in alg.gens
                 if not g.name.startswith("s") and g.total <= 9]
        from fpss.graded import Algebra
        ring_alg = Algebra(P, tuple(small))
        oracle = hh_bruteforce(ring_alg, hi)
        # the page restricted to the same generators
        keep = {g.name for g in small}
        monos = [m for m in page.iter_region(Region(0, hi, 0, hi + 1))
                 if all(e == 0 or alg.gens[i].name in keep
                        or alg.gens[i].name[1:] in keep
                        for i, e in enumerate(m))]
        got = ps_from_monomials(alg, monos, 0, hi)
        assert got == oracle, ring


def test_einf_kills_suspended_even_classes():
    page = bokstedt_einf_page(P, RingId.HZP_MOD, 30)
    alg = page.algebra
    i = alg.index("sbxi1")
    for m in page.iter_region(Region(0, 25, 0, 26)):
        assert m[i] == 0
        for g, e in zip(alg.gens, m):
            if g.name.startswith("sbtau"):
                assert e < P


# (prime, ring) -> bidegrees bokstedt_run checks on the window 0:60
CHECKED_0_60 = {
    (5, RingId.HZP_MOD): 463,
    (5, RingId.HZ_LOCAL): 79,
    (5, RingId.ELL): 21,
    (5, RingId.ELL_MOD_P): 372,
    (3, RingId.ELL): 103,
}


@pytest.mark.parametrize("p, ring", list(CHECKED_0_60))
def test_bidegree_table_matches_per_bidegree_enumeration(p, ring):
    # the one-pass table verify_turn reads, against the per-bidegree
    # enumeration of the algebra, over the widened region it reads
    hi = 60
    region = Region(0, hi, 0, hi + 1).widen(p - 1)
    pages = (bokstedt_e2_page(p, ring, hi + 1),
             bokstedt_einf_page(p, ring, hi + 1))
    alg = pages[0].algebra
    # no generator has negative s or t, so 0 <= s <= total holds throughout
    assert all(g.s >= 0 and g.t >= 0 for g in alg.gens)
    tables = [bidegree_table(page, region) for page in pages]
    seen = set()
    for total in range(max(region.lo, 0), region.hi + 1):
        for s in range(max(region.s_lo, 0), min(total, region.s_hi) + 1):
            bd = (s, total - s)
            monos = alg.basis_in_bidegree(*bd)
            for page, table in zip(pages, tables):
                want = tuple(m for m in monos if page._keep(m))
                assert table.get(bd, ()) == want, (page.label, bd)
            seen.add(bd)
    assert all(set(table) <= seen for table in tables)


@pytest.mark.parametrize("p, ring", list(CHECKED_0_60))
def test_bidegrees_checked_on_window(p, ring):
    assert bokstedt_run(p, ring, 0, 60).bidegrees_checked == CHECKED_0_60[(p, ring)]


def test_default_window_coverage_and_time():
    # the default CLI window 0:125 at p=5
    want = {RingId.HZP_MOD: 2295, RingId.HZ_LOCAL: 382, RingId.ELL: 83,
            RingId.ELL_MOD_P: 1883}
    t0 = time.perf_counter()
    for ring, n in want.items():
        cmp_ = bokstedt_run(P, ring, 0, 125)
        assert cmp_.passed and cmp_.bidegrees_checked == n, ring
    assert time.perf_counter() - t0 < 10
