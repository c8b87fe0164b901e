import pytest

from fpss.comodule import RingId
from fpss.thh import bokstedt, v1
from fpss.thh.tate import module_triples, tate_ambient
from fpss.thh.v1 import poincare_identity_check, v1_thh_presentation

P = 5


def test_presentation_degrees():
    ellmodp = v1_thh_presentation(P, RingId.ELL_MOD_P).series(10)
    assert ellmodp.get(2 * P - 1) == 1          # the eps1b slot
    ell = v1_thh_presentation(P, RingId.ELL).series(10)
    assert ell.get(2 * P - 1) == 1              # the lambda1 slot
    zp = v1_thh_presentation(P, RingId.HZP_MOD).series(10)
    assert zp.get(0) == 1
    assert zp.get(2 * P) == 2                   # mu0^p and eps0 eps1


@pytest.mark.parametrize("ring", list(RingId))
def test_identity_up_to_30(ring):
    ok, problems = poincare_identity_check(P, ring, 30)
    assert ok, problems[:4]


def test_identity_trivial_window():
    ok, _ = poincare_identity_check(P, RingId.ELL_MOD_P, 0)
    assert ok


def test_identity_detects_corruption(monkeypatch):
    # the smash side reads the final Bokstedt page: the page of ell in
    # place of ell/p's (no module factor) must fail, and so must a page
    # on which sbxi1 survives
    real = bokstedt.bokstedt_einf_page
    monkeypatch.setattr(v1, "bokstedt_einf_page", lambda p, ring, top: real(
        p, RingId.ELL, top))
    ok, problems = poincare_identity_check(P, RingId.ELL_MOD_P, 20)
    assert not ok and problems
    monkeypatch.undo()
    assert poincare_identity_check(P, RingId.ELL_MOD_P, 20)[0]
    monkeypatch.setitem(bokstedt._SURVIVING_SXI, RingId.ELL_MOD_P, (1, 2))
    ok, problems = poincare_identity_check(P, RingId.ELL_MOD_P, 20)
    assert not ok and problems


@pytest.mark.parametrize("p", [5, 7])
def test_tower_e2_is_the_ell_mod_p_presentation(p):
    # the towers' E2 page is A (x) M over V(1)_* THH(ell/p): the module
    # monomials sit in the presentation's module degrees, and lambda2 and
    # mu2 in its factors' degrees
    alg = tate_ambient(p, 0)
    pres = v1_thh_presentation(p, RingId.ELL_MOD_P)
    module = sorted(alg.total((0, 0, 0, 0) + trip)
                    for trip in module_triples(p))
    assert module == sorted(pres.module_degrees) == list(range(2 * p))
    factors = {name: degree for name, _, degree, _ in pres.factors}
    ambient = {g.name: g.s + g.t for g in alg.gens}
    assert factors == {name: ambient[name] for name in ("lambda2", "mu2")}
