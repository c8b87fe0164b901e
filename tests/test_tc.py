import time

import pytest

import fpss.tc as tc
from fpss.graded import ps_from_degree_list
from fpss.numerics import rho, vp
from fpss.tc import (PvGenerator, PvModule, _exterior, _pack, classify,
                     fixed_point_check, generator_table, k_Lp_checks,
                     k_lp_presentation, k_presentation, r_endo,
                     r_fixed_points, rh_map_check, tc_presentation,
                     tc_presentation_module, tf_decompose)
from fpss.thh.tate import IE0, IE1, IL, IM, IM0, IT, IU, tate_ambient

P = 5
L, E = 2 * P * P - 1, 2 * P - 1


def mono(e=0, b=0, j=0, c=0):
    return (0, j + c, b, c, 0, 0, e)


# -- the hand-written circle page, kept as an oracle for circle.s1_einf ----


def page_member(p, m):
    """Exact membership in the full circle Tate page (all tower blocks)."""
    if m[IU] or m[IE0] or m[IM0]:
        return False
    e, b, j, c = m[IE1], m[IL], m[IT] - m[IM], m[IM]
    if c < 0:
        return False
    if j == 0:
        return True
    if j % p:
        return c == 0 and e == 0 and 0 < (-j) % (p * p) < p
    v = vp(p, j)
    if v == 1:
        return False
    if v % 2 == 0 and e != 0:
        return False
    if v % 2 == 1 and b != 1:
        return False
    return c < rho(p, v - 1)


def block_monomials_at(p, total, kmax):
    """Circle-page monomials of one total degree, tower blocks up to kmax."""
    L, E = 2 * p * p - 1, 2 * p - 1
    step = 2 * p * p - 2
    out = []
    for b in (0, 1):
        for e in (0, 1):
            base = total - L * b - E * e
            # the A block: j = 0
            if base % step == 0 and base // step >= 0:
                out.append(_pack(e, b, 0, base // step))
            # residue classes: c = 0, p does not divide j
            if e == 0 and base % 2 == 0:
                j = -base // 2
                if j % p and 0 < (-j) % (p * p) < p:
                    out.append(_pack(e, b, j, 0))
            # tower blocks
            for v in range(2, 2 * kmax):
                if v % 2 == 0 and e != 0:
                    continue
                if v % 2 == 1 and b != 1:
                    continue
                trunc = rho(p, v - 1)
                pv = p ** v
                # degree: -2 d p^v + step * c + const = total
                d_lo = -(step * trunc + abs(base) + 2 * pv) // (2 * pv) - 2
                d_hi = (abs(base) + step * trunc) // (2 * pv) + 2
                for d in range(d_lo, d_hi + 1):
                    if d == 0 or d % p == 0:
                        continue
                    num = base + 2 * d * pv
                    if num % step:
                        continue
                    c = num // step
                    if 0 <= c < trunc:
                        out.append(_pack(e, b, d * pv, c))
    return out


def block_params(p, kind, k):
    """(valuation, truncation, leading digits, (e, b) pairs) of the tower
    block B_k or C_k of the circle page."""
    if kind == "B":
        return (2 * k - 2, rho(p, 2 * k - 3),
                [d for d in range(1, p * p - p) if d % p], [(0, 0), (0, 1)])
    return 2 * k - 1, rho(p, 2 * k - 2), range(1, p), [(0, 1), (1, 1)]


@pytest.mark.parametrize("kmax", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("p", [5, 7, 11])
def test_decomposition_matches_hand_written_page(p, kmax):
    # every monomial of the old enumeration, in the same block, and no other
    lo, hi = 2 * p - 1, 5 * p * p
    want = {}
    for total in range(lo, hi + 1):
        for m in block_monomials_at(p, total, kmax):
            assert m not in want and page_member(p, m)
            want[m] = classify(p, m)
    assert tf_decompose(p, lo, hi, kmax) == want


def test_page_membership():
    # degrees 38..958, so the window 9:1000 holds every example
    blocks = tf_decompose(P, 9, 1000, 3)
    assert mono(c=2) in blocks                          # A block
    assert mono(e=1, b=1, c=3) in blocks
    assert mono(b=1, j=-4) in blocks                    # residue class
    assert mono(j=-4, c=1) not in blocks
    assert mono(j=5, c=1) not in blocks                 # valuation 1 is dead
    assert mono(j=25, c=20) in blocks                   # B_2, c < rho(1)
    assert mono(j=25, c=21) not in blocks
    assert mono(b=1, j=125, c=24) in blocks             # C_2, c < rho(2)
    assert mono(j=125, c=8) not in blocks               # C needs lambda2
    assert all(page_member(P, m) for m in blocks)


def test_classification():
    assert classify(P, mono(e=1, b=1, c=2)) == ("A", 0)
    assert classify(P, mono(j=-4)) == ("D", 0)
    assert classify(P, mono(j=25 * 3, c=1)) == ("B", 2)
    assert classify(P, mono(j=-25, c=1)) == ("D", 2)
    assert classify(P, mono(b=1, j=125 * 2, c=1)) == ("C", 2)
    assert classify(P, mono(b=1, j=125 * 7, c=1)) == ("D", 2)


def test_r_endo_examples():
    # R keeps the total degree: the examples are in degrees 96, 149, 202
    # and 429, and t^-4 (degree 8) dies before any lookup
    on_page = tf_decompose(P, 9, 500, 3).__contains__
    # identity on the A block (tmu2 powers and the top exterior class)
    for m in (mono(c=2), mono(e=1, b=1, c=3)):
        assert r_endo(P, m, on_page) == m
    # a height 3 block class drops to the height 2 block with the same
    # leading exponent: t^(2 p^4) with tmu2 power 60 lands on t^(2 p^2)
    # with power 10
    m = mono(b=1, j=2 * P ** 4, c=60)
    assert r_endo(P, m, on_page) == mono(b=1, j=2 * P * P, c=10)
    # height 2 classes die: the would-be target is a residue class with a
    # nonzero tmu2 power
    assert r_endo(P, mono(b=1, j=25 * 2, c=10), on_page) is None
    # targets in the right half plane die
    assert r_endo(P, mono(b=1, j=-25 * 2, c=0), on_page) is None
    # residue classes die
    assert r_endo(P, mono(j=-4), on_page) is None


def test_rh_map_clauses():
    ok, details = rh_map_check(P, 2 * P - 1, 200)
    assert ok, details[:5]


def test_rh_map_window_guard():
    with pytest.raises(ValueError):
        rh_map_check(P, 0, 100)


def test_decomposition_counts():
    blocks = tf_decompose(P, 2 * P - 1, 200, 5)
    # no residue or u classes carry the module generators on the circle page
    assert set(kind for kind, _ in blocks.values()) == {"A", "B", "C", "D"}
    assert ("A", 0) in blocks.values() and ("B", 2) in blocks.values()


def test_fixed_point_check_passes():
    for p, lo, hi in ((5, 9, 125), (7, 13, 400), (5, 50, 700)):
        ok, details = fixed_point_check(p, lo, hi)
        assert ok, details
        assert details[0].startswith("B blocks stabilize at height")


def test_fixed_point_check_passes_in_each_degree():
    # one-degree windows: a block whose rows all miss the window at two
    # heights need not have reached its limit there (at 1258 the digit-19
    # B row tops out below it at heights 2 and 3)
    failing = [d for d in range(2 * P - 1, 3000)
               if not fixed_point_check(P, d, d)[0]]
    assert not failing


def test_r_fixed_points_series():
    ker, cok, notes = r_fixed_points(P, 2 * P - 1, 200)
    # the kernel contains the free block on eps1b and lambda2
    assert ker.get(2 * P - 1) >= 1
    assert cok.get(2 * P - 1) == 1
    # the kernel's closed form: E(A classes), then rows 2 and 3
    a_classes, rows = generator_table(P)
    assert len(_exterior(a_classes)) == 4
    assert [g.row for g in rows] == \
        [2] * (2 * (P - 1) ** 2) + [3] * (2 * (P - 1))
    assert any("stabilize" in n for n in notes)


def test_tc_presentation_additivity():
    mod, problems = tc_presentation(P)
    assert not problems, problems[:4]
    series = mod.series(-1, 10)
    assert series.get(-1) == 1               # the boundary class
    assert series.get(2 * P - 1) == 2        # eps1b and the row 3 class


def test_k_presentation_ranks():
    for p, rank in ((5, 48), (7, 92), (11, 228)):
        mod, problems = k_presentation(p)
        assert not problems, problems[:4]
        assert mod.rank == rank == 2 * p * p - 2 * p + 8
        assert mod.euler == 0


def test_generator_count_identity():
    # 8 in row 1, 2(p-1)^2 in row 2 and 2(p-1) in row 3, in all three
    # modules, summing to 2p^2 - 2p + 8
    for p in (5, 7, 11):
        rows = [8, 2 * (p - 1) ** 2, 2 * (p - 1)]
        assert sum(rows) == 2 * p * p - 2 * p + 8
        mod, _ = k_presentation(p)
        for m in (mod, tc_presentation_module(p), k_lp_presentation(p)):
            assert m.rank == sum(rows), m.name
            assert [sum(g.row == r for g in m.generators) for r in (1, 2, 3)] \
                == rows, m.name


def test_row_parity_balance():
    mod, _ = k_presentation(P)
    for row in (1, 2, 3):
        degs = [g.degree for g in mod.generators if g.row == row]
        even = sum(1 for d in degs if d % 2 == 0)
        assert 2 * even == len(degs)


def test_k_lp_checks():
    ok, details = k_Lp_checks(P)
    assert ok, details
    cond = k_lp_presentation(P)
    assert cond.conditional
    assert cond.rank == 48 and cond.euler == 0
    # the degree 1 class replaces the top exterior class of the first row
    degs = sorted(g.degree for g in cond.generators if g.row == 1)
    assert 1 in degs


def test_export_schema():
    mod, _ = k_presentation(P)
    doc = mod.export()
    assert doc["rank"] == 48 and doc["euler"] == 0
    assert {"label", "degree", "freeness", "row"} <= set(doc["generators"][0])


def test_pv_module_series_is_the_plain_walk():
    # each generator is free over v2: its degree plus every multiple of
    # |v2|, walked one step at a time; negative degrees, and windows that
    # start below, inside and above a progression
    step = 2 * P * P - 2
    gens = (PvGenerator("x", -3 * step - 5), PvGenerator("y", -1),
            PvGenerator("z", 7), PvGenerator("w", 7))
    mod = PvModule(P, "toy", gens)
    for lo, hi in ((-400, 400), (-3 * step - 5, -3 * step - 5), (-100, -2),
                   (-1, 0), (0, 6), (8, 3 * step), (5 * step, 6 * step),
                   (-step, step + 7)):
        degrees = []
        for g in gens:
            d = g.degree
            while d <= hi:
                if d >= lo:
                    degrees.append(d)
                d += step
        assert mod.series(lo, hi) == ps_from_degree_list(degrees, lo, hi), \
            (lo, hi)


def _walk_windows(p, kind, k, windows):
    """The in-window (e, b, d, c) of one tower block, per window, in the
    order the endgame checks them.  Walks every tmu2 power c < trunc where
    that is at most 2e7 steps; past that (p = 7, k = 5: up to 3.6e8 steps
    per block) it walks every degree of each window and solves for c."""
    L, E, step = 2 * p * p - 1, 2 * p - 1, 2 * p * p - 2
    v, trunc, ds, combos = block_params(p, kind, k)
    out = {w: [] for w in windows}
    full = trunc * len(ds) * len(combos) <= 2 * 10 ** 7
    lo_all, hi_all = min(w[0] for w in windows), max(w[1] for w in windows)
    for e, b in combos:
        for d in ds:
            base = -2 * d * p ** v + L * b + E * e
            if full:
                for c in range(trunc):
                    deg = base + step * c
                    if lo_all <= deg <= hi_all:
                        for lo, hi in windows:
                            if lo <= deg <= hi:
                                out[(lo, hi)].append((e, b, d, c))
                continue
            for lo, hi in windows:
                for deg in range(lo, hi + 1):
                    c, rem = divmod(deg - base, step)
                    if not rem and 0 <= c < trunc:
                        out[(lo, hi)].append((e, b, d, c))
    return out


def _clipped(p, kind, k, lo, hi):
    """Whether the first class past the truncation of some row of the block
    lies in the window or reaches it within the row."""
    L, E, step = 2 * p * p - 1, 2 * p - 1, 2 * p * p - 2
    v, trunc, ds, combos = block_params(p, kind, k)
    for e, b in combos:
        for d in ds:
            deg = -2 * d * p ** v + L * b + E * e + step * trunc
            if deg < lo:
                deg += step * -((deg - lo) // step)
            if deg <= hi:
                return True
    return False


def _oracle_step(p, kind, k, classes):
    """The first class without a tower preimage on the hand-written page."""
    v = block_params(p, kind, k)[0]
    on_page = lambda m: page_member(p, m)  # noqa: E731
    for e, b, d, c in classes:
        j = d * p ** v
        m = _pack(e, b, j, c)
        pre = _pack(e, b, j * p * p, c + j)
        if not page_member(p, pre) or tc.r_endo(p, pre, on_page) != m:
            return m
    return None


def _windows(p):
    # from 2p-1, as in the endgame; starting or ending inside the blocks;
    # past the top of the height-2 blocks; and the one total degree 2p^2,
    # which holds no B or C class
    return [(2 * p - 1, 4 * p * p + 1), (2 * p - 1, 2 * p * p + p),
            (3 * p * p, 5 * p * p - 3), (2 * p - 1, 50 * p * p),
            (2 * p * p, 2 * p * p)]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["B", "C"])
@pytest.mark.parametrize("p", [5, 7])
def test_clipped_block_walks_match_full_walk(p, kind, k, monkeypatch):
    L, E, step = 2 * p * p - 1, 2 * p - 1, 2 * p * p - 2
    v = block_params(p, kind, k)[0]
    expected = _walk_windows(p, kind, k, _windows(p))
    assert not expected[(2 * p * p, 2 * p * p)]
    assert expected[(2 * p - 1, 50 * p * p)]
    checked = []
    real_r_endo = tc.r_endo

    def recording_r_endo(p_, m, on_page):
        checked.append(m)
        return real_r_endo(p_, m, on_page)

    monkeypatch.setattr(tc, "r_endo", recording_r_endo)
    walks = {}
    for (lo, hi), classes in expected.items():
        got, clipped = tc._block_classes(p, kind, k, lo, hi)
        walks[lo, hi] = got
        assert clipped == _clipped(p, kind, k, lo, hi), (lo, hi)
        assert [m for _, m in got] == [_pack(e, b, d * p ** v, c)
                                       for e, b, d, c in classes], (lo, hi)
        degrees = [-2 * d * p ** v + L * b + E * e + step * c
                   for e, b, d, c in classes]
        assert tc._series(got, lo, hi) == \
            ps_from_degree_list(degrees, lo, hi), (lo, hi)
        # every preimage is on the page, so r_endo sees each one
        checked.clear()
        assert tc._not_onto(p, kind, k, got) is None, (lo, hi)
        assert checked == [_pack(e, b, d * p ** v * p * p,
                                 c + d * p ** v)
                           for e, b, d, c in classes], (lo, hi)
    # a failing step reports the first failing class of the full walk
    monkeypatch.setattr(tc, "r_endo", lambda p_, m, on_page: None
                        if m[1] % 3 == 0 else real_r_endo(p_, m, on_page))
    for (lo, hi), classes in expected.items():
        assert tc._not_onto(p, kind, k, walks[lo, hi]) == \
            _oracle_step(p, kind, k, classes), (lo, hi)


def test_r_fixed_points_is_fast():
    # the tower blocks checked here truncate at up to 1.0e5 tmu2 powers per
    # leading digit; the time must follow the in-window classes instead
    t0 = time.perf_counter()
    ker, cok, notes = r_fixed_points(7, 13, 197)
    assert time.perf_counter() - t0 < 1.0
    assert any("onto" in n for n in notes)
