import pytest

from fpss.specseq import Region
from fpss.thh.circle import (blocks_meeting, comparison_region,
                             lemma_78_check, lemma_79_check, s1_einf,
                             s1_limits)

P = 5


def test_circle_page_degree_zero():
    # bidegree (0, 0) is spanned by the unit alone; the full total degree 0
    # line also meets the deeper tower blocks
    form = s1_einf(P, 3, "tate")
    assert [form.algebra.mono_str(m) for m in form.basis_at(0, 0)] == ["1"]
    # the tmu2 powers stay below rho(4) = 650, so columns -10^6..10^6 hold
    # every class of total degree 0
    names = [form.algebra.mono_str(m)
             for _, m in form.iter_region(Region(0, 0, -10 ** 6, 10 ** 6))]
    assert "1" in names


def test_circle_page_lambda2_column():
    form = s1_einf(P, 3, "tate")
    total = 2 * P * P - 1
    monos = form.iter_region(Region(total, total, -10 ** 6, 10 ** 6))
    assert any(form.algebra.mono_str(m) == "lambda2" for _, m in monos)


def test_truncation_is_stable_in_region():
    region = comparison_region(P, -20, 60, "tate")
    kmax = blocks_meeting(P, region)
    small = s1_einf(P, kmax, "tate")
    large = s1_einf(P, kmax + 2, "tate")
    dims_small = {}
    for bd, _ in small.iter_region(region):
        dims_small[bd] = dims_small.get(bd, 0) + 1
    dims_large = {}
    for bd, _ in large.iter_region(region):
        dims_large[bd] = dims_large.get(bd, 0) + 1
    assert dims_small == dims_large


def test_s1_stabilization():
    for conv in ("tate", "hofix"):
        ok, problems = s1_limits(P, -20, 60, conv)
        assert ok, (conv, problems[:5])


@pytest.mark.parametrize("n", [1, 2])
def test_lemma_78(n):
    ok, details = lemma_78_check(P, n, -60, 120)
    assert ok, details[:5]


@pytest.mark.parametrize("n", [1, 2])
def test_lemma_79(n):
    ok, details = lemma_79_check(P, n, -60, 120)
    assert ok, details[:5]


def test_lemma_checks_vacuous_window():
    ok, details = lemma_78_check(P, 1, 5, 5)
    assert ok and details == ["0 exponents checked"]
    ok, details = lemma_79_check(P, 2, 1, 4)
    assert ok and details == ["0 exponents checked"]
