import pytest

from fpss.graded import Algebra, Generator, Kind, poincare_series
from fpss.thh.hochschild import hh_bruteforce, hochschild_boundary, _chain_basis, _monomials_by_degree

P = 5


def ext(name, t):
    return Generator(name, 0, t, Kind.EXTERIOR)


def poly(name, t):
    return Generator(name, 0, t, Kind.POLYNOMIAL)


def divided(name, t):
    return Generator(name, 0, t, Kind.DIVIDED)


def closed_form(gens):
    return poincare_series(Algebra(P, tuple(gens)), 0, 12)


def test_exterior_oracle():
    alg = Algebra(P, (ext("x", 9),))
    assert hh_bruteforce(alg, 12) == closed_form([ext("x", 9), divided("sx", 10)])


def test_polynomial_oracle():
    alg = Algebra(P, (poly("x", 2),))
    assert hh_bruteforce(alg, 12) == closed_form([poly("x", 2), ext("sx", 3)])


def test_trivial_algebra():
    got = hh_bruteforce(Algebra(P, ()), 6)
    assert [got.get(d) for d in range(7)] == [1, 0, 0, 0, 0, 0, 0]


def test_tensor_factor_oracle():
    alg = Algebra(P, (ext("t", 1), poly("x", 8)))
    want = closed_form([ext("t", 1), poly("x", 8), divided("st", 2),
                        ext("sx", 9)])
    assert hh_bruteforce(alg, 12) == want


def test_degree_zero_generator_rejected():
    with pytest.raises(ValueError):
        hh_bruteforce(Algebra(P, (ext("x", 0),)), 4)


def test_boundary_squares_to_zero():
    alg = Algebra(P, (ext("t", 1), poly("x", 2)))
    by_deg = _monomials_by_degree(alg, 8)
    checked = 0
    for n in (1, 2, 3):
        for d in range(n, 9):
            for tns in _chain_basis(alg, by_deg, n, d):
                first = hochschild_boundary(alg, tns)
                acc: dict = {}
                for t2, c in first.items():
                    for t3, c2 in hochschild_boundary(alg, t2).items():
                        acc[t3] = (acc.get(t3, 0) + c * c2) % P
                assert all(v == 0 for v in acc.values()), tns
                checked += 1
    assert checked > 50


def test_boundary_of_boundary_nonzero_is_a_verification_error(monkeypatch):
    # a boundary of full rank in every length cannot square to zero; the
    # oracle reports that as a mismatch, not as an internal error
    import fpss.thh.hochschild as hochschild
    from fpss.specseq import VerificationError

    def full_rank(alg, tns):
        n, d = len(tns) - 1, sum(alg.total(m) for m in tns)
        by_deg = _monomials_by_degree(alg, d)
        below = _chain_basis(alg, by_deg, n - 1, d)
        own = _chain_basis(alg, by_deg, n, d)
        return {below[own.index(tns) % len(below)]: 1} if below else {}

    monkeypatch.setattr(hochschild, "hochschild_boundary", full_rank)
    alg = Algebra(P, (poly("x", 2), poly("y", 2)))
    with pytest.raises(VerificationError, match="boundary of boundary"):
        hh_bruteforce(alg, 8)
