import time
from collections import Counter

import pytest

from fpss import specseq
from fpss.cli import main
from fpss.numerics import rho, vp
from fpss.specseq import (DerivationRule, FamilyRule, Region,
                          VerificationError, bidegree_table, verify_turn)
from fpss.tc import classify, tf_decompose
import fpss.thh.tate as tate
from fpss.thh.circle import comparison_region, s1_einf, s1_limits
from fpss.thh.tate import (BOTH, IE0, IE1, IL, IM, IT, IU, PLAIN, PLAIN_E,
                           TOWERS, RuleRow, SSInstance, Stage, Summand,
                           TateForm, _allowed_steps, _ball_list, _balls,
                           _canon, _matching_certifies, _meet, _minus, _moved,
                           _pred_ok, _same, family_rule,
                           instance_region, module_triples, run_instance,
                           tate_ambient, tower_form, tower_instance)

P = 5


def instance_forms(inst):
    """Every page of an instance, E2 first."""
    return [inst.stages[0].before] + [st.after for st in inst.stages]


def relabeling_agreement(p, n, lo, hi):
    """Pages before the final odd differential agree for Tate towers of
    heights n and n+1, up to renaming the column class.  A stage's closed
    form is the page E_(r+1), r its rule's length."""
    bound = 2 * rho(p, 2 * n) + 1
    region = instance_region(p, n, lo, hi, "tate")

    def pages(h):
        inst = tower_instance(p, h, "tate")
        rs = [2] + [st.rule.r + 1 for st in inst.stages]
        return [f for f, r in zip(instance_forms(inst), rs) if r <= bound]

    forms_a, forms_b = pages(n), pages(n + 1)
    if len(forms_a) != len(forms_b):
        return False, [f"page counts differ: {len(forms_a)} vs {len(forms_b)}"]
    problems = []
    for fa, fb in zip(forms_a, forms_b):
        da, db = (Counter(bd for bd, _ in f.iter_region(region))
                  for f in (fa, fb))
        if da != db:
            bad = min(bd for bd in da | db if da[bd] != db[bd])
            problems.append(f"{fa.label} vs {fb.label}: dims differ at "
                            f"(s={bad[0]}, t={bad[1]})")
    return not problems, problems


def test_module_generator_count():
    assert len(module_triples(P)) == 2 * P


def test_seed_bidegree_examples():
    e2 = tower_form(P, 1, "tate", "E2")
    alg = e2.algebra
    # bidegree (-2, 0) holds exactly t
    assert [alg.mono_str(m) for m in e2.basis_at(-2, 0)] == ["t"]
    # bidegree (0, 0) holds the unit
    assert [alg.mono_str(m) for m in e2.basis_at(0, 0)] == ["1"]
    # eps1b sits in (0, 2p-1) together with eps0 mu0^(p-1)? the latter is
    # excluded from the module basis, so only mu2-free classes remain
    names = [alg.mono_str(m) for m in e2.basis_at(0, 2 * P - 1)]
    assert "eps1b" in names and "eps0*mu0^4" not in names


def test_forms_are_duplicate_free():
    for form in (tower_form(P, 2, "tate", "odd", 2),
                 tower_form(P, 2, "hofix", "even", 1),
                 tower_form(P, 2, "tate", "Einf"),
                 tower_form(P, 2, "hofix", "Einf")):
        region = Region(-30, 60, -400, 64)
        seen = set()
        for (s, t), m in form.iter_region(region):
            assert m not in seen
            seen.add(m)
            assert m in form.basis_at(s, t)


def test_cp_run_small_window():
    results = run_instance(tower_instance(P, 1, "tate"), -20, 40)
    assert all(c.passed for c in results)
    assert len(results) == 4


def test_runs_at_the_next_prime():
    for conv in ("tate", "hofix"):
        results = run_instance(tower_instance(7, 1, conv), -20, 60)
        assert all(c.passed for c in results)


def test_hofix_run_small_window():
    results = run_instance(tower_instance(P, 1, "hofix"), -20, 40)
    assert all(c.passed for c in results)


def test_final_page_top_class():
    # total degree 2p-2 of the final page: the residue class t^(-4) and the
    # eps1b lambda2 class one periodicity step up
    einf = tower_form(P, 1, "tate", "Einf")
    alg = einf.algebra
    total = 2 * P - 2
    monos = einf.iter_region(Region(total, total, -10 ** 4, 10 ** 4))
    names = sorted(alg.mono_str(m) for _, m in monos)
    assert names == ["t^-4", "t^25*lambda2*eps1b"]


def test_cpn_einf_block_example():
    # the height 2 final page contains the valuation 2 block truncated at
    # rho(1) = 21
    einf = tower_form(P, 2, "tate", "Einf")
    alg = einf.algebra
    sample = [m for _, m in einf.iter_region(Region(-60, 60, -3000, 64))
              if m[IL] == 0 and m[IU] == 0 and m[IE1] == 0
              and (m[IT] - m[IM]) not in (0,) and m[IM] > 0]
    assert sample
    for m in sample:
        j, c = m[IT] - m[IM], m[IM]
        if j and vp(P, j) == 2:
            assert c < rho(P, 1)


def test_pages_never_grow():
    inst = tower_instance(P, 1, "tate")
    region = instance_region(P, 1, -20, 40, "tate")
    forms = instance_forms(inst)
    for before, after in zip(forms, forms[1:]):
        dims_b = {}
        for bd, _ in before.iter_region(region):
            dims_b[bd] = dims_b.get(bd, 0) + 1
        for bd, _ in after.iter_region(region):
            dims_b[bd] = dims_b.get(bd, 0) - 1
        assert all(v >= 0 for v in dims_b.values())


def test_dd_zero_and_unit_invariance():
    # d after d vanishes (verify_turn checks it) and every unit multiple of
    # the rule certifies the same closed form
    inst = tower_instance(P, 1, "tate")
    region = Region(-10, 30, -300, 34)
    st = inst.stages[1]
    for unit in (1, 2, 3):
        cmp_ = verify_turn(st.before, st.rule.scaled(unit), st.after, region)
        assert cmp_.passed and cmp_.bidegrees_checked, unit


def test_relabeling_agreement():
    ok, problems = relabeling_agreement(P, 1, -20, 40)
    assert ok, problems[:3]


def test_d2_leibniz_example():
    # d2 on eps0 mu0^2 is t mu0^3: one Leibniz step, odd leading factor
    inst = tower_instance(P, 1, "tate")
    alg = inst.algebra
    rule = inst.stages[0].rule
    got = rule.apply(alg, alg.mono(eps0=1, mu0=2))
    assert got == {alg.mono(t=1, mu0=3): 1}


def test_unit_bidegree_of_final_page():
    einf = tower_form(P, 1, "tate", "Einf")
    assert [einf.algebra.mono_str(m) for m in einf.basis_at(0, 0)] == ["1"]


def test_certificates_do_not_depend_on_the_window():
    # the tower certificates hold in every degree, so an empty window
    # gives the default window's results
    for conv in ("tate", "hofix"):
        inst = tower_instance(P, 1, conv)
        results = run_instance(inst, 5, 4)
        assert all(c.passed and c.bidegrees_checked for c in results)
        assert results == run_instance(inst, -2 * P * P, 5 * P * P)


def test_verifier_catches_corrupted_rule():
    # a wrong tmu2 increment in the first odd family must be detected
    from fpss.specseq import FamilyRule
    from fpss.specseq import verify_turn

    def bad_odd(alg, m):
        a, J, b, M, d0, i0, e = m
        if e != 1 or d0 or i0:
            return []
        j = J - M - (P - P * P)
        if j == 0 or vp(P, j) != 0:
            return []
        c = M + 2          # correct increment is 1
        return [((a, j + c, b, c, 0, 0, 0), 1)]

    inst = tower_instance(P, 1, "tate")
    region = instance_region(P, 1, -20, 40, "tate")
    rule = FamilyRule(2 * rho(P, 1), "bad-odd", bad_odd)
    cmp_ = verify_turn(inst.stages[1].before, rule, inst.stages[1].after,
                       region)
    assert not cmp_.passed


def test_verifier_catches_corrupted_form():
    # an off-by-one truncation in the final page must be detected
    from fpss.specseq import verify_turn
    from fpss.thh.tate import PLAIN, PLAIN_E, Summand, TateForm, tate_ambient

    alg = tate_ambient(P, 1)
    wrong = TateForm("wrong", alg, "tate", (
        Summand((0, 1), (0, 1), PLAIN, 1, ("res",)),
        Summand((0,), (0, 1), PLAIN_E, rho(P, 0) + 2, ("vp_ge", 2)),
    ))
    inst = tower_instance(P, 1, "tate")
    region = instance_region(P, 1, -20, 40, "tate")
    st = inst.stages[3]
    cmp_ = verify_turn(st.before, st.rule, wrong, region)
    assert not cmp_.passed


def test_form_at_lookup():
    inst = tower_instance(P, 1, "tate")
    assert inst.form_at(2).label.endswith("E2")
    assert inst.form_at(3).label.endswith("E3")
    assert inst.form_at(2 * rho(P, 1)).label.endswith("E3")
    assert inst.form_at(2 * rho(P, 1) + 1).label.endswith("odd:1")
    assert inst.form_at("inf").label.endswith("Einf")
    with pytest.raises(ValueError):
        inst.form_at(1)


@pytest.mark.parametrize("conv", ["tate", "hofix"],
                         ids=["tate_instance", "hofix_instance"])
def test_bidegree_tables_match_basis_at(conv):
    # every lookup verify_turn makes, against the per-bidegree closed form
    inst = tower_instance(P, 1, conv)
    region = instance_region(P, 1, -10, 20, conv)
    for st in inst.stages:
        r = st.rule.r
        before = bidegree_table(st.before, region.widen(r))
        after = bidegree_table(st.after, region)
        checked = {bd for bd in before if region.contains(*bd)} | after.keys()
        # the bidegrees two in-region passes give
        assert checked == {inst.algebra.bidegree(m)
                           for form in (st.before, st.after)
                           for _, m in form.iter_region(region)}
        assert checked
        for s, t in checked:
            for bd in ((s, t), (s + r, t - r + 1), (s - r, t + r - 1)):
                assert before.get(bd, ()) == st.before.basis_at(*bd), bd
            assert after.get((s, t), ()) == st.after.basis_at(s, t), (s, t)


def test_total_region_read_is_fast():
    # p = 11, kmax = 5 has tmu2 powers up to rho(11, 10) ~ 2.6e10; the walk
    # reads the total-degree window without stepping through them
    for conv in ("tate", "hofix"):
        form = s1_einf(11, 5, conv)
        t0 = time.perf_counter()
        monos = list(form.iter_region(form.total_region(0, 0)))
        assert time.perf_counter() - t0 < 2.0, conv
        assert monos


def _classes_at_total(form, total, c_cap):
    """The union of basis_at(s, total - s) over every column s that holds a
    class of tmu2 power c < c_cap: c fixes the internal degree up to the
    row's constant on Tate pages, and the column up to u on homotopy fixed
    point pages."""
    p = form.p
    ft, fm = TOWERS[form.conv].free
    out = set()
    for c in range(c_cap):
        if form.conv == "tate":
            bds = {(total - t, t) for sm in form.summands for b in sm.lam
                   for d0, i0, e in sm.module
                   for t in [form._vert_const(b, d0, i0, e) + 2 * p * p * c]}
        else:
            bds = {(s, total - s) for sm in form.summands for a in sm.u
                   for s in [-a - 2 * c]}
        for s, t in bds:
            out.update(m for m in form.basis_at(s, t)
                       if fm * m[IT] + ft * m[IM] == c)
    return out


@pytest.mark.parametrize("conv", ["tate", "hofix"])
@pytest.mark.parametrize("p", [5, 7])
def test_total_region_read_matches_basis_at(p, conv):
    # every class of a total-degree window read is a basis_at class of its
    # bidegree; below the cap on the tmu2 power (above every c_hi for
    # kmax <= 2 Tate and kmax = 1 homotopy fixed point pages) the union of
    # basis_at has no other class
    c_cap = 2 * p * p
    ft, fm = TOWERS[conv].free
    for kmax in range(1, 5):
        form = s1_einf(p, kmax, conv)
        alg = form.algebra
        for total in range(-60, 201):
            got = [m for _, m in
                   form.iter_region(form.total_region(total, total))]
            assert len(set(got)) == len(got)
            for m in got:
                assert m in form.basis_at(*alg.bidegree(m)), (kmax, m)
            low = {m for m in got if fm * m[IT] + ft * m[IM] < c_cap}
            assert low == _classes_at_total(form, total, c_cap), (kmax, total)


def _c_cap(form, hi):
    """A tmu2 cap above every c_hi of the form and above the tmu2 power of
    every class of its untruncated summands up to total degree hi."""
    return max([sm.c_hi for sm in form.summands if sm.c_hi is not None]
               + [hi // (2 * form.p * form.p - 2) + 2])


@pytest.mark.parametrize("total", [-3000, 5000, 5040, 20000, 20016])
@pytest.mark.parametrize("conv", ["tate", "hofix"])
def test_window_reads_far_from_zero(conv, total):
    # homotopy fixed point columns are -a - 2c <= 0 whatever the total, and
    # far up the A block's tmu2 power (the zero summand's) passes every
    # c_hi: the window read still holds exactly the union of basis_at
    step = 2 * P * P - 2
    forms = [s1_einf(P, kmax, conv) for kmax in (1, 2)]
    if conv == "hofix":
        forms += [tower_form(P, n, conv, "Einf") for n in (1, 2)]
    seen = 0
    for form in forms:
        c_cap = _c_cap(form, total)
        got = [m for _, m in form.iter_region(form.total_region(total, total))]
        assert len(set(got)) == len(got)
        assert set(got) == _classes_at_total(form, total, c_cap), \
            (form.label, total)
        seen += len(got)
        if total % step == 0 and ":s1:" in form.label:
            # the A block's power of t mu2 in this degree
            c = total // step
            assert (0, c, 0, c, 0, 0, 0) in got, form.label
    assert seen


def test_decomposition_far_from_zero():
    # with kmax = 1 the head, with c_hi 1, is the only truncated summand,
    # and in degrees 5000..5030 the A block's tmu2 power is above 100
    lo, hi = 5000, 5030
    form = s1_einf(P, 1, "tate")
    c_cap = _c_cap(form, hi)
    want = set()
    for total in range(lo, hi + 1):
        want |= _classes_at_total(form, total, c_cap)
    blocks = tf_decompose(P, lo, hi, 1)
    assert set(blocks) == want and want
    assert all(blocks[m] == classify(P, m) for m in want)


def _scan_iter_region(form, region):
    """iter_region by scan and filter: every total degree of the window that
    can hold a class, at each tmu2 power, kept when its column is in the
    window and the predicate accepts its free exponent; each summand row's
    classes listed by free exponent, then tmu2 power."""
    p = form.p
    ft, fm, f_s, f_tot = form._free_degrees()
    step, stride = 2 * p * p - 2, abs(f_tot)
    for sm in form.summands:
        for a in sm.u:
            for b in sm.lam:
                for d0, i0, e in sm.module:
                    base = form._vert_const(b, d0, i0, e) - a
                    row = []
                    c = 0
                    while sm.c_hi is None or c < sm.c_hi:
                        rest = base + step * c
                        if -a - 2 * c + f_s * (region.hi - rest) // f_tot \
                                < region.s_lo:
                            break
                        first = region.lo + (rest - region.lo) % stride
                        for total in range(first, region.hi + 1, stride):
                            free = (total - rest) // f_tot
                            s = -a - 2 * c + f_s * free
                            if region.s_lo <= s <= region.s_hi and \
                                    _pred_ok(sm.pred, p, free):
                                row.append((free, c))
                        c += 1
                    for free, c in sorted(row):
                        yield (a, c + ft * free, b, c + fm * free, d0, i0, e)


def _oracle_regions(p, n, conv):
    inst = instance_region(p, n, -20, 60, conv)
    return [inst, inst.widen(7), comparison_region(p, -40, 160, conv),
            # column bounds through the tower blocks and the head
            Region(-40, 160, -300, 40), Region(-100, 100, -37, -3),
            Region(-60, 200, -61, 11), Region(3, 3, -1000, 3),
            Region(10, 9, -50, 50),
            # starts where the Tate head's residue steps wrap around p^2
            Region(4 - 2 * p * p, 100, -200, 30)]


@pytest.mark.parametrize("conv", ["tate", "hofix"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p", [5, 7])
def test_iter_region_matches_scan(p, n, conv):
    forms = instance_forms(tower_instance(p, n, conv))
    forms += [s1_einf(p, kmax, conv) for kmax in (2, 3, 4)]
    for form in forms:
        for region in _oracle_regions(p, n, conv):
            placed = list(form.iter_region(region))
            got = [m for _, m in placed]
            assert got == list(_scan_iter_region(form, region)), \
                (form.label, region)
            # the scan places no class, so each bidegree is checked apart
            assert all(bd == form.algebra.bidegree(m) for bd, m in placed), \
                (form.label, region)


def test_iter_region_lists_hofix_free_exponents_once(monkeypatch):
    # in both conventions the column minus k times the total degree does not
    # depend on the free exponent, so each summand row lists its allowed
    # free exponents once instead of once per tmu2 power
    calls = [0]
    real = _allowed_steps

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(tate, "_allowed_steps", counting)
    for conv in ("tate", "hofix"):
        region = instance_region(P, 2, -2 * P * P, 5 * P * P, conv)
        forms = instance_forms(tower_instance(P, 2, conv))
        for form in forms + [s1_einf(P, kmax, conv) for kmax in (2, 4)]:
            calls[0] = 0
            yielded = sum(1 for _ in form.iter_region(region))
            rows = sum(len(sm.u) * len(sm.lam) * len(sm.module)
                       for sm in form.summands)
            assert yielded > 0, form.label
            assert calls[0] <= rows, (form.label, calls[0], rows)


def test_iter_region_steps_only_allowed_residues(monkeypatch):
    # the free exponent steps through the predicate's balls, which are
    # exact, so _pred_ok is never asked
    for conv in ("tate", "hofix"):
        calls, yielded = [0], [0]

        def counting_pred_ok(pred, p, x):
            calls[0] += 1
            return _pred_ok(pred, p, x)

        real_read = TateForm.iter_region

        def counting_read(self, region):
            for placed in real_read(self, region):
                yielded[0] += 1
                yield placed

        monkeypatch.setattr(tate, "_pred_ok", counting_pred_ok)
        monkeypatch.setattr(TateForm, "iter_region", counting_read)
        ok, problems = s1_limits(5, -40, 160, conv)
        monkeypatch.undo()
        assert ok, problems[:3]
        assert yielded[0] > 0
        assert calls[0] == 0, (conv, calls[0], yielded[0])


# the default CLI window at p = 5, the acceptance window, the next prime
FACTOR_WINDOWS = [(5, -50, 125), (5, -40, 160), (7, -20, 60)]


def _agrees_with_verify_turn(st, region):
    # the certificate passes, for the rule and (at p = 7) a rescaling, with
    # verify_turn's label and (empty) mismatch list, and a positive cell
    # count in place of its bidegree count
    rules = (st.rule, st.rule.scaled(2)) if st.before.p == 7 else (st.rule,)
    for rule in rules:
        got = _matching_certifies(st._replace(rule=rule))
        assert got is not None and got.passed, rule.name
        assert got.bidegrees_checked > 0, rule.name
        want = verify_turn(st.before, rule, st.after, region)
        assert (got.label, got.passed, got.mismatches) == (
            want.label, want.passed, want.mismatches), rule.name


@pytest.mark.parametrize("conv", ["tate", "hofix"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p, lo, hi", FACTOR_WINDOWS)
def test_factorization_agrees_with_verify_turn(p, lo, hi, n, conv):
    # d2 = x delta reduces to the module monomials whichever summands list
    # them: E2 split into its eps0 classes and the rest, two summands with
    # disjoint module parts, certifies
    st = tower_instance(p, n, conv).stages[0]
    sm, = st.before.summands
    split = tuple(sm._replace(module=tuple(m for m in sm.module if m[0] == d0))
                  for d0 in (1, 0))
    _agrees_with_verify_turn(
        st._replace(before=st.before._replace(summands=split)),
        instance_region(p, n, lo, hi, conv))


def test_factorization_decides_only_d2(monkeypatch):
    # every default tower run certifies every stage, d2 included, by the one
    # matching certificate; verify_turn is never called
    calls = []

    def spy(name):
        real = getattr(tate, name)

        def counting(*args):
            got = real(*args)
            calls.append((name, got is not None and got.passed))
            return got
        return counting

    for name in ("_matching_certifies", "verify_turn"):
        monkeypatch.setattr(tate, name, spy(name))
    for p in (5, 7):
        for n in (1, 2, 3):
            for conv in ("tate", "hofix"):
                inst = tower_instance(p, n, conv)
                calls.clear()
                results = run_instance(inst, -2 * p * p, 5 * p * p)
                assert all(c.passed for c in results)
                assert calls == [("_matching_certifies", True)] * len(
                    inst.stages), (p, n, conv)


def test_default_tower_runs_enumerate_no_page(monkeypatch):
    # the certificates read summands only: no page is walked monomial by
    # monomial, not even to count its bidegrees
    calls = []

    def spy(real):
        def counting(*args):
            calls.append(real.__name__)
            return real(*args)
        return counting

    monkeypatch.setattr(TateForm, "iter_region",
                        spy(TateForm.iter_region))
    monkeypatch.setattr(specseq, "bidegree_table",
                        spy(specseq.bidegree_table))
    for p in (5, 7):
        for n in (1, 2, 3):
            for conv in ("tate", "hofix"):
                results = run_instance(tower_instance(p, n, conv),
                                       -2 * p * p, 5 * p * p)
                assert all(c.passed for c in results), (p, n, conv)
                assert calls == [], (p, n, conv)


def test_run_instance_builds_each_cell_table_once(monkeypatch):
    # a middle page is one stage's closed form and the next stage's page:
    # one run_instance call cuts each distinct form into cells once (35
    # forms for 34 stages at p = 5, n = 16, not 68 tables), and keeps no
    # table past the call, so a second run builds them again and a
    # monkeypatched _moved is still reached
    built, moved = [], []
    real_cells, real_moved = tate._cells, tate._moved

    def cells(form):
        built.append(form)
        return real_cells(form)

    def moved_(A, shift):
        moved.append(shift)
        return real_moved(A, shift)

    monkeypatch.setattr(tate, "_cells", cells)
    monkeypatch.setattr(tate, "_moved", moved_)
    for conv in ("tate", "hofix"):
        inst = tower_instance(P, 16, conv)
        forms = set(instance_forms(inst))
        assert len(forms) == len(inst.stages) + 1 == 35
        for _ in range(2):
            built.clear()
            moved.clear()
            assert all(c.passed for c in run_instance(inst, -50, 125))
            assert len(built) == 35 and set(built) == forms
            assert moved


def test_height_3_towers_are_fast():
    # Tate at p = 7 and homotopy fixed points at p = 5 on the default
    # window, from the closed forms
    t0 = time.perf_counter()
    for p, conv in ((7, "tate"), (5, "hofix")):
        results = run_instance(tower_instance(p, 3, conv), -2 * p * p,
                               5 * p * p)
        assert all(c.passed for c in results), conv
    assert time.perf_counter() - t0 < 2.0


@pytest.mark.parametrize("p, n", [(5, 5), (7, 4)])
def test_large_heights_are_fast(p, n):
    # the cells are p-adic balls, so the certificates' cost does not grow
    # with p^(2n): both conventions on the default window
    t0 = time.perf_counter()
    for conv in ("tate", "hofix"):
        results = run_instance(tower_instance(p, n, conv), -2 * p * p,
                               5 * p * p)
        assert all(c.passed for c in results), conv
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("conv", ["tate", "hofix"])
def test_large_height_closed_form_mutants_decline(conv):
    # at p = 5, n = 4 the balls go down to modulus p^8: every turn after d2
    # declines a closed form without its last B block, and one with a C
    # block of valuation 2k instead of 2k - 1 (verify_turn is not run at
    # this height)
    tried = 0
    for st in tower_instance(P, 4, conv).stages[1:]:
        assert _matching_certifies(st)
        sums = st.after.summands
        blocks = [i for i, sm in enumerate(sums) if sm.pred[0] == "vp_eq"]
        b_blocks = [i for i in blocks if sums[i].pred[1] % 2 == 0]
        # the Tate page after d4 has the head and no block
        mutants = [sums[:b_blocks[-1]] + sums[b_blocks[-1] + 1:]] \
            if b_blocks else []
        for i in blocks:
            if sums[i].pred[1] % 2:
                wrong = sums[i]._replace(pred=("vp_eq", sums[i].pred[1] + 1))
                mutants.append(sums[:i] + (wrong,) + sums[i + 1:])
        tried += len(mutants)
        for summands in mutants:
            after = st.after._replace(summands=summands)
            assert _matching_certifies(st._replace(after=after)) is None, (
                st.rule.name, summands)
    # per turn, the last B block and every C block, down to vp_eq(7)
    assert tried == {"tate": 20, "hofix": 29}[conv]


def test_factorization_is_fast():
    # both conventions at p = 5, n = 2 on the default window
    t0 = time.perf_counter()
    for conv in ("tate", "hofix"):
        assert _matching_certifies(tower_instance(P, 2, conv).stages[0])
    assert time.perf_counter() - t0 < 0.5


def test_tower_turns_are_fast():
    # both conventions at p = 5, n = 2 on the default window, every stage
    t0 = time.perf_counter()
    for conv in ("tate", "hofix"):
        results = run_instance(tower_instance(P, 2, conv), -2 * P * P,
                               5 * P * P)
        assert all(c.passed for c in results)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("conv", ["tate", "hofix"])
def test_tower_certificate_work_gate(conv, monkeypatch):
    # the benchmark's tower run at p = 5, n = 2: each key is visited at its
    # own tmu2 cuts only, and each distinct cell gets one ball check.  A
    # count of _same and _cell calls, not a timing (every key at every
    # global cut took 248 and 560 _same calls, 616 and 2,628 _cell calls)
    calls = Counter()

    def spy(name):
        honest = getattr(tate, name)

        def counted(*args):
            calls[name] += 1
            return honest(*args)
        monkeypatch.setattr(tate, name, counted)

    spy("_same")
    spy("_cell")
    results = run_instance(tower_instance(P, 2, conv), -50, 125)
    assert all(c.passed for c in results)
    assert calls["_same"] <= 100, calls
    if conv == "hofix":
        assert calls["_cell"] <= 1300, calls


def test_tower_certificate_depth_work_gate(monkeypatch):
    # p = 5, n = 8 on the default window, both conventions: two summands
    # that hold one key are checked for overlap once, when the cell tables
    # are built, not again at each cut (12,250 _meet calls when every cell
    # read re-ran the check)
    calls = [0]
    honest = tate._meet

    def counted(*args):
        calls[0] += 1
        return honest(*args)

    monkeypatch.setattr(tate, "_meet", counted)
    for conv in ("tate", "hofix"):
        results = run_instance(tower_instance(P, 8, conv), -50, 125)
        assert all(c.passed for c in results), conv
    assert calls[0] <= 4000, calls


def _spy_calls(monkeypatch, *names):
    """Count the calls of tate's helpers by name, and under "_same/_minus"
    the _minus calls made inside a _same call."""
    calls, inside = Counter(), []

    def spy(name):
        honest = getattr(tate, name)

        def counted(*args):
            calls[name] += 1
            if name == "_minus" and "_same" in inside:
                calls["_same/_minus"] += 1
            inside.append(name)
            try:
                return honest(*args)
            finally:
                inside.pop()
        monkeypatch.setattr(tate, name, counted)

    for name in names:
        spy(name)
    return calls


@pytest.mark.parametrize("conv, most", [("tate", 200), ("hofix", 300)])
def test_tower_certificate_reads_each_key_class_once(conv, most, monkeypatch):
    # the benchmark's tower run at p = 5, n = 2: keys with the same page,
    # closed-form and preimage cells and source flag are one class, read
    # at its cuts once (key by key took 378 and 1,024 _cell calls; by
    # class 169 and 262)
    calls = _spy_calls(monkeypatch, "_cell")
    results = run_instance(tower_instance(P, 2, conv), -50, 125)
    assert all(c.passed for c in results)
    assert calls["_cell"] <= most, calls


@pytest.mark.parametrize("conv, same", [("tate", 1455), ("hofix", 1572)])
def test_same_compares_canonical_balls(conv, same, monkeypatch):
    # p = 5, n = 16 on the default window: each distinct cell still gets
    # one _same call, and _same compares canonical ball lists, with no
    # _minus call (2,046 and 2,174 _minus calls under _same before)
    calls = _spy_calls(monkeypatch, "_same", "_minus")
    results = run_instance(tower_instance(P, 16, conv), -50, 125)
    assert all(c.passed for c in results)
    assert calls["_same"] == same and calls["_same/_minus"] == 0, calls


@pytest.mark.parametrize("target", ["thm-7.1", "thm-7.4"])
def test_height_32_towers_are_fast(target, capsys):
    # in-process at p = 5 on the default window: 4.7-6.4 s with _same
    # by two _minus calls, about 1.1 s by canonical balls
    t0 = time.perf_counter()
    code = main(["verify", target, "--n", "32"])
    elapsed = time.perf_counter() - t0
    assert code == 0 and "PASS" in capsys.readouterr().out
    assert elapsed < 4.0, elapsed


def _c_hi_mutants(st):
    """The stage with one finite c_hi of its page or of its closed form moved
    by -1 or +1, where it stays at least 1."""
    for side in ("before", "after"):
        form = getattr(st, side)
        for i, sm in enumerate(form.summands):
            for d in (-1, 1):
                if sm.c_hi is not None and sm.c_hi + d >= 1:
                    sums = form.summands[:i] + (
                        sm._replace(c_hi=sm.c_hi + d),) + form.summands[i + 1:]
                    yield st._replace(**{side: form._replace(summands=sums)})


def _all_cuts_certifies(st):
    """The tower certificate with every key checked at every global cut, B
    and B + inc, where B is 0 and every tmu2 bound of the page and of the
    closed form: the reference for the certificate's per-key cuts.  True
    where it passes, None where it declines."""
    before, after, r, p = st.before, st.after, st.rule.r, st.before.p
    alg, conv = before.algebra, before.conv
    if after.algebra != alg or after.conv != conv:
        return None
    page, closed = tate._cells(before), tate._cells(after)
    if page is None or closed is None:
        return None
    match = (tate._d2_matching if st.row is None else tate._row_matching)(
        st, page)
    if match is None:
        return None
    image, inc, shift, guard = match
    image_of = {img: key for key, img in image.items()}
    if len(image_of) < len(image) or image_of.keys() & image.keys() or any(
            alg.bidegree(tate._change(conv, (b - a for a, b in zip(key, img)),
                                      inc, shift)) != (-r, r - 1)
            for key, img in image.items()):
        return None
    cuts = {0} | {sm.c_hi for form in (before, after)
                  for sm in form.summands if sm.c_hi is not None}
    for c in cuts | {b + inc for b in cuts}:
        for key in page.keys() | closed.keys() | image_of.keys():
            here, want = tate._cell(page, key, c), tate._cell(closed, key, c)
            pre = image_of.get(key)
            hit = [] if pre is None else tate._cell(page, pre, c - inc)
            hit = _moved(_meet(hit, guard), shift)
            src = _meet(here, guard) if key in image else []
            if _minus(hit, here, p) or \
                    not _same(_minus(_minus(here, src, p), hit, p), want, p):
                return None
    return True


def test_tower_certificate_declines_every_moved_bound():
    # at p = 5, n = 2, every finite tmu2 bound of a page or a closed form
    # moved by one, in both conventions: the certificate declines each
    tried = 0
    for conv in ("tate", "hofix"):
        for st in tower_instance(P, 2, conv).stages:
            for mutant in _c_hi_mutants(st):
                tried += 1
                assert _matching_certifies(mutant) is None, (
                    mutant.rule.name, mutant.before.summands,
                    mutant.after.summands)
    assert tried == 88


@pytest.mark.parametrize("conv", ["tate", "hofix"])
@pytest.mark.parametrize("p", [5, 7])
def test_tower_certificate_agrees_with_all_cuts(p, conv):
    # the per-key cuts give the verdict of every key at every global cut,
    # on every turn at heights 1 to 3 and on each of its moved-bound mutants
    for n in (1, 2, 3):
        for st in tower_instance(p, n, conv).stages:
            assert _matching_certifies(st) and _all_cuts_certifies(st), (
                n, st.rule.name)
            for mutant in _c_hi_mutants(st):
                assert (_matching_certifies(mutant) is None) == (
                    _all_cuts_certifies(mutant) is None), (n, st.rule.name)


def _drop_eps1b(st, alg):
    sums = tuple(sm._replace(module=PLAIN) if sm.pred == ("vp_ge", 0) else sm
                 for sm in st.after.summands)
    return st._replace(after=st.after._replace(summands=sums))


def _drop_head(st, alg):
    return st._replace(after=st.after._replace(
        summands=st.after.summands[1:]))


def _with_rule(r=2, values=lambda alg: {}, power_rules=lambda alg: {},
               d2=True):
    # the d2 rule (d2=True) with more values, or these values alone
    def mutate(st, alg):
        vals = {"eps0": alg.elem(t=1, mu0=1)} if d2 else {}
        vals.update(values(alg))
        return st._replace(rule=DerivationRule(r, "mutant", vals,
                                               power_rules(alg)))
    return mutate


def _with_e2(**changes):
    def mutate(st, alg):
        sm, = st.before.summands
        return st._replace(before=st.before._replace(
            summands=(sm._replace(**changes),)))
    return mutate


def _with_after(*sums):
    def mutate(st, alg):
        return st._replace(after=st.after._replace(summands=sums))
    return mutate


def _other_convention(st, alg):
    # the closed form's summands read in the other tower convention
    other, = set(TOWERS) - {st.after.conv}
    return st._replace(after=st.after._replace(conv=other))


def _chain(*mutations):
    def mutate(st, alg):
        for m in mutations:
            st = m(st, alg)
        return st
    return mutate


P2 = 2 * P * P
EPS0_MU0 = tuple((1, j, 0) for j in range(P))
FACTOR_MUTANTS = {
    "E3 without eps1b": ("tate", _drop_eps1b),
    "hofix E3 without its head": ("hofix", _drop_head),
    "E3 listing a class twice": ("hofix", lambda st, alg: st._replace(
        after=st.after._replace(summands=st.after.summands * 2))),
    # mu0 = t^-1 d2(eps0) is a boundary, in a module key E3 does not have
    "E3 with mu0": ("tate", lambda st, alg: _with_after(
        *st.after.summands, Summand(BOTH, BOTH, ((0, 1, 0),), None,
                                    ("any",)))(st, alg)),
    "value on a passive generator": ("tate", _with_rule(
        values=lambda alg: {"lambda2": alg.elem(t=1, mu2=1)})),
    # u t^(p^2) lambda2 has the bidegree of a length 2p^2+1 differential
    "x a zero divisor": ("tate", _with_rule(
        r=P2 + 1, values=lambda alg: {
            "eps0": alg.elem(u1=1, t=P * P, lambda2=1, mu0=1)})),
    # x = u t: without u the values have d2's bidegrees, but x kills the
    # classes with u and moves the others into column s - 3
    "x a zero divisor of d2's length": ("tate", _with_rule(
        d2=False, values=lambda alg: {"eps0": alg.elem(u1=1, t=1, mu0=1)})),
    # x = t^(2p^2) mu2^2 leaves the slices c = 0, 1 in the cokernel; the
    # closed form claims c = 0 alone
    "x raises the tmu2 power by two": ("tate", _chain(
        _with_rule(r=4 * P * P, d2=False, values=lambda alg: {
            "mu0": alg.elem(t=2 * P * P, mu2=2, eps0=1)}),
        _with_after(Summand(BOTH, BOTH, ((0, 0, 0), (0, 0, 1)), None, ("any",)),
                    Summand(BOTH, BOTH, EPS0_MU0[:-1], 1, ("any",))))),
    # mu0 -> t^(p^2) mu2 eps0 and eps1b -> t^(p^2) lambda2 eps0 mu0^(p-1):
    # one bidegree shift, two passive factors, the second a zero divisor
    "two passive factors": ("tate", _chain(
        _with_rule(r=P2, d2=False, values=lambda alg: {
            "mu0": alg.elem(t=P * P, mu2=1, eps0=1),
            "eps1b": alg.elem(t=P * P, lambda2=1, eps0=1, mu0=P - 1)}),
        _with_e2(module=module_triples(P) + ((1, P - 1, 0),)),
        _with_after(Summand(BOTH, BOTH, ((0, 0, 0),), None, ("any",)),
                    Summand(BOTH, BOTH, EPS0_MU0, 1, ("any",))))),
    # eps0 mu0^(p-1) and eps1b both go to t^(p^2) mu2 mu0^(p-1): their
    # difference is a cycle, which the closed form leaves out
    "two sources onto one image": ("tate", _chain(
        _with_rule(r=P2, d2=False, values=lambda alg: {
            "eps0": alg.elem(t=P * P, mu2=1),
            "eps1b": alg.elem(t=P * P, mu2=1, mu0=P - 1)}),
        _with_e2(module=module_triples(P) + ((1, P - 1, 0),)),
        _with_after(Summand(BOTH, BOTH, tuple((0, i, 0) for i in range(P)),
                            1, ("any",))))),
    "two-term value": ("hofix", _with_rule(values=lambda alg: {
        "eps0": alg.add(alg.elem(t=1, mu0=1),
                        alg.elem(t=1, lambda2=1, mu2=-1, eps0=1, mu0=1))})),
    # d(mu0) = t eps0 mu0 on a module with eps0 mu0^(p-1): still a matching
    # into the module, but d(mu0^i) = i t eps0 mu0^i has d of it nonzero
    "delta delta nonzero": ("tate", _chain(
        _with_rule(values=lambda alg: {"mu0": alg.elem(t=1, eps0=1, mu0=1)}),
        _with_e2(module=module_triples(P) + ((1, P - 1, 0),)))),
    "wrong length": ("tate", _with_rule(r=3)),
    # d(t^e) = t^(e+1) eps0 on the passive t
    "power rule": ("tate", _with_rule(power_rules=lambda alg: {
        "t": lambda e: alg.elem(t=e + 1, eps0=1)})),
    "E2 with vp_ge 1": ("tate", _with_e2(pred=("vp_ge", 1))),
    "E2 with a tmu2 bound": ("hofix", _with_e2(c_hi=7)),
    "module without mu0^(p-1)": ("tate", _with_e2(module=tuple(
        m for m in module_triples(P) if m != (0, P - 1, 0)))),
    "module listing eps1b twice": ("hofix", _with_e2(
        module=module_triples(P) + ((0, 0, 1),))),
    # the cells of E3 in either convention are the same; the classes differ
    "tate E3 in the hofix convention": ("tate", _other_convention),
    "hofix E3 in the tate convention": ("hofix", _other_convention),
}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except VerificationError as err:
        return ("VerificationError", str(err))


def _takes_verify_turn(st):
    # the certificate declines, and run_instance returns (or raises) exactly
    # what verify_turn does
    conv = st.before.conv
    region = instance_region(P, 1, -20, 60, conv)
    assert _outcome(_matching_certifies, st) is None
    mutant = SSInstance("mutant", P, 1, st.before.algebra, (st,))
    want = _outcome(verify_turn, st.before, st.rule, st.after, region)
    assert _outcome(lambda: run_instance(mutant, -20, 60, region)[0]) == want


@pytest.mark.parametrize("name", sorted(FACTOR_MUTANTS))
def test_factorization_mutants_take_verify_turn(name):
    conv, mutate = FACTOR_MUTANTS[name]
    inst = tower_instance(P, 1, conv)
    _takes_verify_turn(mutate(inst.stages[0], inst.algebra))


@pytest.mark.parametrize("conv", ["tate", "hofix"])
def test_row_closed_form_in_the_other_convention_takes_verify_turn(conv):
    # the first odd turn, whose closed form has cells in both conventions
    inst = tower_instance(P, 1, conv)
    _takes_verify_turn(_other_convention(inst.stages[1], inst.algebra))


@pytest.mark.parametrize("conv", ["tate", "hofix"])
def test_page_listing_a_summand_twice_takes_verify_turn(conv):
    # every turn at p = 5, n = 1 on a page whose last summand comes twice:
    # its classes overlap from c = 0, so the cell tables refuse the page
    for st in tower_instance(P, 1, conv).stages:
        before = st.before
        _takes_verify_turn(st._replace(before=before._replace(
            summands=before.summands + before.summands[-1:])))


@pytest.mark.parametrize("conv", ["tate", "hofix"])
def test_empty_summand_copy_still_certifies(conv):
    # a copy of the closed form's last summand with c_hi = 0 holds no
    # class, so it overlaps nothing and every turn still certifies
    for st in tower_instance(P, 1, conv).stages:
        after = st.after
        empty = after.summands[-1]._replace(c_hi=0)
        got = _matching_certifies(st._replace(after=after._replace(
            summands=after.summands + (empty,))))
        assert got is not None and got.passed, st.rule.name


# -- the summand certificate ----------------------------------------------


@pytest.mark.parametrize("conv", ["tate", "hofix"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p, lo, hi", FACTOR_WINDOWS)
def test_summand_certificate_agrees_with_verify_turn(p, lo, hi, n, conv):
    # every turn, d2 included, certifies as a matching on summand cells
    region = instance_region(p, n, lo, hi, conv)
    for st in tower_instance(p, n, conv).stages:
        _agrees_with_verify_turn(st, region)


def test_summand_certificate_agrees_at_height_3():
    # the window -20:60 keeps verify_turn's share to about 5 s
    region = instance_region(P, 3, -20, 60, "tate")
    for st in tower_instance(P, 3, "tate").stages[1:]:
        _agrees_with_verify_turn(st, region)


def _next_pred(pred):
    return ("res",) if pred == ("ceil_unit",) else (pred[0], pred[1] + 1)


# one mutant per row field, each a wrong rule; the slot moves to another
# exterior slot (final rows) or out of the cell key (odd and even rows)
ROW_MUTANTS = {
    "slot": lambda row: row._replace(
        slot={IU: IL, IL: IT, IE1: IE0}[row.slot]),
    "src": lambda row: row._replace(src=1 - row.src),
    "pred": lambda row: row._replace(pred=_next_pred(row.pred)),
    "inc": lambda row: row._replace(inc=row.inc + 1),
    "shift": lambda row: row._replace(shift=row.shift + 1),
    "r": lambda row: row._replace(r=row.r + 1),
}


# one mutant per closed-form summand field, each a wrong closed form when
# applied to the summand a page ends with: vp_ge, or the top of Einf
SUMMAND_MUTANTS = {
    "u": lambda sm: sm._replace(u=(0,) if sm.u == BOTH else BOTH),
    "lam": lambda sm: sm._replace(lam=(1,)),
    "module": lambda sm: sm._replace(module=PLAIN),
    # Einf's top summand made unbounded: wrong only from tmu2 power inc on,
    # a cut that no summand bound gives
    "c_hi": lambda sm: sm._replace(c_hi=1 if sm.c_hi is None else None),
    "pred": lambda sm: sm._replace(pred=_next_pred(sm.pred)),
}


def _declines_then_fails(st, region):
    # the certificate declines and run_instance does not pass the stage
    assert _matching_certifies(st) is None, st.rule.name
    mutant = SSInstance("mutant", P, 2, st.before.algebra, (st,))
    got = _outcome(lambda: run_instance(mutant, region.lo, region.hi,
                                        region)[0])
    assert isinstance(got, tuple) or not got.passed, st.rule.name


@pytest.mark.parametrize("conv", ["tate", "hofix"])
@pytest.mark.parametrize("field", sorted(ROW_MUTANTS))
def test_summand_row_mutants_take_verify_turn(field, conv):
    # every row of the p = 5, n = 2 tower, with its rule rebuilt
    region = instance_region(P, 2, -2 * P * P, 5 * P * P, conv)
    for st in tower_instance(P, 2, conv).stages[1:]:
        row = ROW_MUTANTS[field](st.row)
        rule = family_rule(P, conv, row)
        _declines_then_fails(st._replace(rule=rule, row=row), region)


@pytest.mark.parametrize("conv", ["tate", "hofix"])
@pytest.mark.parametrize("field", sorted(SUMMAND_MUTANTS))
def test_summand_form_mutants_take_verify_turn(field, conv):
    # the last summand of every closed form after d2 at p = 5, n = 2
    region = instance_region(P, 2, -2 * P * P, 5 * P * P, conv)
    for st in tower_instance(P, 2, conv).stages[1:]:
        *head, last = st.after.summands
        after = st.after._replace(summands=(*head,
                                            SUMMAND_MUTANTS[field](last)))
        _declines_then_fails(st._replace(after=after), region)


@pytest.mark.parametrize("conv", ["tate", "hofix"])
@pytest.mark.parametrize("keep", ["unhit", "sources"])
def test_summand_certificate_needs_images_on_the_page(keep, conv):
    # the final turn on a page without the u = 0 classes it hits: the page
    # without sources is still the closed form, but the images leave the
    # page, into the keys of the page (unhit) or into no key of either
    # page (sources)
    st = tower_instance(P, 2, conv).stages[-1]
    *head, top = st.before.summands
    sources = top._replace(u=(1,))
    if keep == "unhit":
        unhit = top._replace(u=(0,), c_hi=st.after.summands[-1].c_hi)
        before, after = (*head, sources, unhit), st.after.summands
    else:
        before, after = (sources,), ()
    st = st._replace(before=st.before._replace(summands=before),
                     after=st.after._replace(summands=after))
    region = instance_region(P, 2, -2 * P * P, 5 * P * P, conv)
    _declines_then_fails(st, region)


def test_summand_certificate_translates_the_hit_balls(monkeypatch):
    # a row whose shift p^2 - p is not 0 modulo its guard's modulus p^2:
    # eps1b classes of valuation 1 go to x + p^2 - p, and those with
    # x = p mod p^2 land on valuation 2, outside the page.  The certificate
    # declines only because it moves the hit balls by the shift.
    alg = tate_ambient(P, 1)
    row = RuleRow("odd", 1, IE1, 1, ("vp_eq", 1), 1, P * P - P,
                  2 * (P * P - P + 1))
    before = TateForm("page", alg, "tate",
                      (Summand((0,), (0,), PLAIN_E, None, ("vp_eq", 1)),))
    after = TateForm("closed", alg, "tate",
                     (Summand((0,), (0,), PLAIN, 1, ("vp_eq", 1)),))
    rule = family_rule(P, "tate", row)
    st = Stage(rule, before, after, row)
    assert _matching_certifies(st) is None
    cmp_ = verify_turn(before, rule, after,
                       instance_region(P, 1, -20, 60, "tate"))
    assert not cmp_.passed
    assert any("outside the page" in m.detail for m in cmp_.mismatches)
    monkeypatch.setattr(tate, "_moved", lambda A, shift: A)
    wrong = _matching_certifies(st)
    assert wrong is not None and wrong.passed


def test_summand_certificate_cuts_where_the_arrivals_end():
    # eps1b classes with c < 3 hit the plain classes with 1 <= c < 4, so
    # the plain classes with c >= 4 survive, and the closed form, plain at
    # c = 0 alone, is wrong.  No tmu2 bound of the plain key or of the
    # closed form is 4: only the preimage's bound 3 plus inc = 1 cuts there
    alg = tate_ambient(P, 1)
    row = RuleRow("odd", 1, IE1, 1, ("vp_eq", 0), 1, P * P - P,
                  2 * (P * P - P + 1))
    before = TateForm("page", alg, "tate", (
        Summand((0,), (0,), ((0, 0, 1),), 3, ("vp_eq", 0)),
        Summand((0,), (0,), PLAIN, None, ("vp_eq", 0))))
    after = TateForm("closed", alg, "tate",
                     (Summand((0,), (0,), PLAIN, 1, ("vp_eq", 0)),))
    st = Stage(family_rule(P, "tate", row), before, after, row)
    _declines_then_fails(st, instance_region(P, 1, -20, 60, "tate"))
    assert _all_cuts_certifies(st) is None


def _signature_stage(part, wrong):
    """The first odd Tate turn at p = 5, n = 1 on two keys that agree in
    three parts of their class signature (page cells, closed-form cells,
    the preimage's page cells, source or not) and differ in the fourth,
    part.  The key wrong (0 or 1) has a wrong closed form; with wrong None
    both are right."""
    row = tower_instance(P, 1, "tate").stages[1].row
    assert (row.slot, row.pred, row.inc) == (IE1, ("vp_eq", 0), 1)
    ANY, V1 = ("any",), ("vp_ge", 1)
    E1, MU0 = ((0, 0, 1),), ((0, 1, 0),)   # a source, and neither end

    def sm(u, module, pred, c_hi=None):
        return Summand((u,), (0,), module, c_hi, pred)

    if part in ("page", "closed"):
        # the mu0 keys with u = 0 and 1, each its own page
        odd = [sm(u, MU0, V1 if u == wrong else ANY) for u in (0, 1)]
        whole = [sm(u, MU0, ANY) for u in (0, 1)]
        before, after = (odd, whole) if part == "page" else (whole, odd)
    elif part == "preimage":
        # the plain keys are hit by their eps1b preimages from c = 1 on,
        # except where the preimage holds no ball of the guard
        before = [sm(u, E1, V1 if u == wrong else ANY) for u in (0, 1)] + [
            sm(u, PLAIN, ANY) for u in (0, 1)]
        after = [sm(u, E1, V1) for u in (0, 1)] + [
            sm(u, PLAIN, ("vp_eq", 0), 1) for u in (0, 1)] + [
            sm(u, PLAIN, V1) for u in (0, 1)]
    else:
        # the eps1b key, a source, and the mu0 key, not one, on one summand
        src, other = {None: (V1, ANY), 0: (ANY, ANY), 1: (V1, V1)}[wrong]
        before = [sm(0, E1 + MU0, ANY), sm(0, PLAIN, ANY)]
        after = [sm(0, E1, src), sm(0, MU0, other),
                 sm(0, PLAIN, ("vp_eq", 0), 1), sm(0, PLAIN, V1)]
    alg = tate_ambient(P, 1)
    return Stage(family_rule(P, "tate", row),
                 TateForm("page", alg, "tate", tuple(before)),
                 TateForm("closed", alg, "tate", tuple(after)), row)


@pytest.mark.parametrize("wrong", [0, 1])
@pytest.mark.parametrize("part", ["page", "closed", "preimage", "source"])
def test_summand_certificate_tells_keys_apart_by_each_signature_part(
        part, wrong):
    # keys are read by class, one key standing for all; two keys that
    # differ in one part of the signature only must not be one class.  One
    # key of the two is wrong, either one in turn, so the turn declines
    # whichever key a class would read; with both right it certifies
    region = instance_region(P, 1, -20, 60, "tate")
    _agrees_with_verify_turn(_signature_stage(part, None), region)
    _declines_then_fails(_signature_stage(part, wrong), region)


def test_summand_certificate_declines_a_zero_unit():
    for conv in ("tate", "hofix"):
        region = instance_region(P, 2, -2 * P * P, 5 * P * P, conv)
        for st in tower_instance(P, 2, conv).stages[1:]:
            _declines_then_fails(st._replace(rule=st.rule.scaled(P)),
                                 region)


# -- the rule table against the closures it replaced ----------------------


def _old_shift(tw, inc, x):
    return inc + tw.sign * x * tw.free[0], inc + tw.sign * x * tw.free[1]


def _old_odd_rule(p, k, conv):
    tw = TOWERS[conv]
    x = p ** (2 * k) - p ** (2 * k - 1)
    dj, dm = _old_shift(tw, rho(p, 2 * k - 2 + tw.rho_shift), x)

    def fn(alg, m):
        a, J, b, M, d0, i0, e = m
        if e != 1 or d0 or i0:
            return []
        j = J - M + x
        if j == 0 or vp(p, j) != 2 * k - 2:
            return []
        return [((a, J + dj, b, M + dm, 0, 0, 0), 1)]

    return FamilyRule(2 * rho(p, 2 * k - 1), f"{conv}-odd:{k}", fn)


def _old_even_rule(p, k, conv):
    tw = TOWERS[conv]
    dj, dm = _old_shift(tw, rho(p, 2 * k - 1 + tw.rho_shift), p ** (2 * k))

    def fn(alg, m):
        a, J, b, M, d0, i0, e = m
        if b or d0 or i0:
            return []
        if k < tw.first_block:
            q, rem = divmod(tw.sign * (J - M), p)
            if (q + (1 if rem else 0)) % p == 0:
                return []
        elif J == M or vp(p, J - M) != 2 * k - 1:
            return []
        return [((a, J + dj, 1, M + dm, 0, 0, e), 1)]

    return FamilyRule(2 * rho(p, 2 * k), f"{conv}-even:{k}", fn)


def _old_final_rule(p, n, conv):
    tw = TOWERS[conv]
    dj, dm = _old_shift(tw, rho(p, 2 * n - 1 + tw.rho_shift) + 1, p ** (2 * n))

    def fn(alg, m):
        a, J, b, M, d0, i0, e = m
        if a != 1 or d0 or i0:
            return []
        if J != M and vp(p, J - M) < 2 * n:
            return []
        return [((0, J + dj, b, M + dm, 0, 0, e), 1)]

    return FamilyRule(2 * rho(p, 2 * n) + 1, f"{conv}-final:{n}", fn)


@pytest.mark.parametrize("conv", ["tate", "hofix"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p", [5, 7])
def test_rule_table_matches_closures(p, n, conv):
    # every rule after d2 has the name, length and values of the closure it
    # replaced, on every monomial of its widened page
    inst = tower_instance(p, n, conv)
    alg = inst.algebra
    old = [rule for k in range(1, n + 1) for rule in
           (_old_odd_rule(p, k, conv), _old_even_rule(p, k, conv))]
    old.append(_old_final_rule(p, n, conv))
    assert len(inst.stages) == len(old) + 1
    for st, want in zip(inst.stages[1:], old):
        assert (st.rule.name, st.rule.r) == (want.name, want.r)
        region = instance_region(p, n, -20, 60, conv).widen(st.rule.r)
        fired = 0
        for _, m in st.before.iter_region(region):
            got = st.rule.apply(alg, m)
            assert got == want.apply(alg, m), (want.name, alg.mono_str(m))
            fired += bool(got)
        assert fired, want.name


PREDS = [("any",), ("zero",), ("res",), ("ceil_unit",), ("vp_eq", 0),
         ("vp_eq", 1), ("vp_eq", 2), ("vp_ge", 0), ("vp_ge", 1),
         ("vp_ge", 2)]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_residue_steps_match_pred_ok(p):
    # the free exponents iter_region takes are exactly those the valuation
    # scan accepts, ascending
    for pred in PREDS:
        balls = _balls(pred, p)
        for free0 in (-2 * p ** 3 - 1, -p * p, -1, 0, 1, p, 7 * p ** 3):
            # windows longer than two periods, and shorter ones
            for k_lo, k_hi in ((-p ** 3, 2 * p ** 3), (-1, p),
                               (p - 1, p * p + 2), (2, 3), (5, 5)):
                got = list(_allowed_steps(balls, free0 + k_lo,
                                          free0 + k_hi))
                want = [free0 + k for k in range(k_lo, k_hi)
                        if _scan_ok(pred, p, free0 + k)]
                assert got == want, (pred, free0, k_lo, k_hi)


def _scan_ok(pred, p, x):
    """The predicates as the paper states them, by valuation."""
    kind = pred[0]
    if kind == "any":
        return True
    if kind == "zero":
        return x == 0
    if kind == "vp_eq":
        return x != 0 and vp(p, x) == pred[1]
    if kind == "vp_ge":
        return x == 0 or vp(p, x) >= pred[1]
    if kind == "res":
        return 0 < (-x) % (p * p) < p
    assert kind == "ceil_unit"
    return -(-x // p) % p != 0


BALL_PREDS = PREDS + [("vp_eq", 3), ("vp_ge", 3), ("vp_ge", 4)]


@pytest.mark.parametrize("p", [5, 7])
def test_residues_match_the_full_scan(p):
    # for every kind, the ball table is the set of free exponents mod p^k
    # that the valuation scan accepts, for every p^k its modulus divides;
    # zero has no balls, and _pred_ok agrees with the scan off [0, p^k)
    for k in (2, 3, 4):
        N = p ** k
        for pred in BALL_PREDS:
            want = frozenset(x for x in range(N) if _scan_ok(pred, p, x))
            balls = _balls(pred, p)
            if balls is None:
                assert pred == ("zero",) and want == {0}
                continue
            M, residues = balls
            assert list(residues) == sorted(set(residues)), pred
            if N % M:
                continue
            assert frozenset(x for x in range(N) if x % M in residues) \
                == want, (pred, N)
    for pred in BALL_PREDS:
        for x in range(-2 * p ** 4, p ** 4, p - 1):
            assert _pred_ok(pred, p, x) == _scan_ok(pred, p, x), (pred, x)


def test_balls_reject_unknown_kinds():
    for pred in (("bogus",), ("vp_le", 1)):
        with pytest.raises(ValueError):
            _balls(pred, P)
    assert _balls(("zero",), P) is None
    with pytest.raises(ValueError):
        _pred_ok(("bogus",), P, 1)


def _points(balls, N):
    """The oracle: a list of balls as the frozenset of its points mod N."""
    return frozenset(x for q, r in balls for x in range(r, N, q))


def _disjoint(balls, N):
    return sum(N // q for q, _ in balls) == len(_points(balls, N))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_ball_algebra_matches_residue_sets(p):
    # meet, difference, translation and equality against frozensets mod
    # p^4, on the balls of every predicate kind, shifted, on unions of two
    # of them as cells hold them, and on single balls nested either way
    N = p ** 4
    sets = []
    for pred in BALL_PREDS:
        balls = _ball_list(pred, p)
        if balls is None:
            continue
        for shift in (0, 1, p + 2, -p * p):
            sets.append(_moved(balls, shift))
    sets += [_ball_list(("vp_eq", 1), p) + _ball_list(("vp_ge", 2), p),
             _ball_list(("res",), p) + _moved(_ball_list(("vp_ge", 3), p), 1)]
    sets += [[(q, r)] for q in (1, p, p ** 3) for r in (0, 1, p + 1)
             if r < q]
    points = [_points(A, N) for A in sets]
    for A, pa in zip(sets, points):
        assert _disjoint(A, N), A
        for shift in (1, -p, p ** 3 + 2):
            moved = _moved(A, shift)
            assert _points(moved, N) == frozenset((x + shift) % N
                                                  for x in pa)
        for B, pb in zip(sets, points):
            meet, rest = _meet(A, B), _minus(A, B, p)
            assert _points(meet, N) == pa & pb, (A, B)
            assert _points(rest, N) == pa - pb, (A, B)
            assert _disjoint(meet, N) and _disjoint(rest, N), (A, B)
            assert _same(A, B, p) == (pa == pb), (A, B)


def _ball_sets(p):
    """The ball lists of test_ball_algebra_matches_residue_sets: every
    predicate's balls, shifted, two unions as cells hold them, and single
    balls nested either way."""
    sets = []
    for pred in BALL_PREDS:
        balls = _ball_list(pred, p)
        if balls is not None:
            sets += [_moved(balls, shift) for shift in (0, 1, p + 2, -p * p)]
    sets += [_ball_list(("vp_eq", 1), p) + _ball_list(("vp_ge", 2), p),
             _ball_list(("res",), p) + _moved(_ball_list(("vp_ge", 3), p), 1)]
    return sets + [[(q, r)] for q in (1, p, p ** 3) for r in (0, 1, p + 1)
                   if r < q]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_canonical_balls_match_residue_sets(p):
    # on those lists and on every difference between two of them (split,
    # not maximal): the canonical form holds the same points, is sorted,
    # has no p sibling balls left to merge and is its own canonical form,
    # and two lists have one canonical form exactly when they hold the
    # same points mod p^4
    N = p ** 4
    sets = _ball_sets(p)
    sets += [_minus(A, B, p) for A in sets for B in sets]
    by_points = {}
    for A in sets:
        canon = _canon(A, p)
        assert _points(canon, N) == _points(A, N), A
        assert canon == sorted(canon) and _canon(canon, p) == canon, A
        parents = Counter((q // p, r % (q // p)) for q, r in canon if q > 1)
        assert p not in parents.values(), A
        assert by_points.setdefault(_points(A, N), canon) == canon, A
    assert len({tuple(c) for c in by_points.values()}) == len(by_points)
