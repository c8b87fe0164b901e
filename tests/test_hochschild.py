import itertools

import pytest

from fpss.fp_linalg import dense_rank
from fpss.graded import Algebra, Generator, Kind, PoincareSeries, poincare_series
from fpss.thh.hochschild import hh_bruteforce, hochschild_boundary, _chain_basis, _products

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


def tensors(table, n, d):
    # C_n(d) in lexicographic order of indices
    return sorted(tns for block in _chain_basis(table, n, d).values()
                  for tns in block)


def monomials(table, tns):
    return tuple(table.mons[k] for k in tns)


def faces(table, tns):
    # the boundary keyed by face tensors: a fresh index map, read back
    idx = {}
    col = hochschild_boundary(table, tns, idx)
    face = list(idx)
    return {face[k]: c for k, c in col.items()}


def test_boundary_squares_to_zero():
    alg = Algebra(P, (ext("t", 1), poly("x", 2)))
    table = _products(alg, 8)
    checked = 0
    for n in (1, 2, 3):
        for d in range(n, 9):
            for tns in tensors(table, n, d):
                first = faces(table, tns)
                acc: dict = {}
                for t2, c in first.items():
                    for t3, c2 in faces(table, t2).items():
                        acc[t3] = (acc.get(t3, 0) + c * c2) % P
                assert all(v == 0 for v in acc.values()), tns
                checked += 1
    assert checked > 50


def test_boundary_of_boundary_nonzero_is_a_verification_error(monkeypatch):
    # a boundary of full rank in every length cannot square to zero; the
    # oracle reports that as a mismatch, not as an internal error
    import fpss.thh.hochschild as hochschild
    from fpss.specseq import VerificationError

    def full_rank(table, tns, idx):
        n, d = len(tns) - 1, sum(map(alg.total, monomials(table, tns)))
        below = tensors(table, n - 1, d)
        own = tensors(table, n, d)
        if not below:
            return {}
        face = below[own.index(tns) % len(below)]
        return {idx.setdefault(face, len(idx)): 1}

    monkeypatch.setattr(hochschild, "hochschild_boundary", full_rank)
    alg = Algebra(P, (poly("x", 2), poly("y", 2)))
    with pytest.raises(VerificationError, match="boundary of boundary"):
        hh_bruteforce(alg, 8)


def truncated(name, t, height):
    return Generator(name, 0, t, Kind.TRUNCATED, height)


def reference_hh(alg, hi):
    # every d_n by dense elimination on the whole degree, no weight split
    # and no clearing: dim H_n = |C_n| - rank d_n - rank d_(n+1)
    table = _products(alg, hi)

    def rank(n, d):
        src = tensors(table, n, d)
        col = {t: i for i, t in enumerate(tensors(table, n - 1, d))}
        rows = []
        for tns in src:
            row = [0] * len(col)
            for t2, c in faces(table, tns).items():
                row[col[t2]] = c
            rows.append(row)
        return dense_rank(alg.p, rows) if col else 0

    counts = {}
    for d in range(hi + 1):
        for n in range(min(d, hi - d) + 1):
            size = len(tensors(table, n, d))
            counts[n + d] = counts.get(n + d, 0) + size - rank(n, d) \
                - rank(n + 1, d)
    return PoincareSeries.from_counts(0, hi, counts)


REFERENCE_ALGEBRAS = {
    "exterior": ((ext("y", 3),), 16),
    "polynomial": ((poly("x", 2),), 14),
    "truncated": ((truncated("x", 2, 3),), 14),
    "divided": ((divided("g", 2),), 14),
    "mixed-parity": ((ext("a", 1), ext("b", 3), poly("x", 2)), 9),
    "mixed-kinds": ((ext("t", 1), truncated("h", 2, 2), divided("g", 4)), 10),
    # column degrees: an odd exterior and an odd divided class, s = 1; to
    # degree 18 the series at p = 3 differs from p = 5 and 7
    "bigraded": ((Generator("b", 1, 2, Kind.EXTERIOR),
                  Generator("g", 1, 4, Kind.DIVIDED)), 18),
}


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("name", sorted(REFERENCE_ALGEBRAS))
def test_oracle_matches_dense_reference(name, p):
    gens, hi = REFERENCE_ALGEBRAS[name]
    alg = Algebra(p, gens)
    got = hh_bruteforce(alg, hi)
    assert got == reference_hh(alg, hi)
    assert any(got.get(d) for d in range(1, hi + 1))


def test_break_on_a_cleared_tensor_is_a_verification_error(monkeypatch):
    # In P(x), |x| = 2, internal degree 4, d(1|x|x) = 2 x|x - 1|x^2 makes
    # 1|x^2 the pivot of im d_2, so d_1(1|x^2) is never eliminated.  Adding
    # x^2 to it breaks d o d there and nowhere else; the ranks cannot see
    # it, the boundary-of-boundary check must.
    import fpss.thh.hochschild as hochschild
    from fpss.specseq import VerificationError

    alg = Algebra(P, (poly("x", 2),))
    cleared, extra = ((0,), (2,)), ((2,),)
    honest = hochschild.hochschild_boundary

    def broken(table, tns, idx):
        out = dict(honest(table, tns, idx))
        if monomials(table, tns) == cleared:
            face = idx.setdefault((table.mons.index(extra[0]),), len(idx))
            out[face] = (out.get(face, 0) + 1) % P
        return out

    want = hh_bruteforce(alg, 8)
    monkeypatch.setattr(hochschild, "hochschild_boundary", broken)
    # without the check the mutant is silent: the tensor really is cleared
    with monkeypatch.context() as m:
        m.setattr(hochschild, "_boundary_of_boundary", lambda *a: None)
        assert hh_bruteforce(alg, 8) == want
    with pytest.raises(VerificationError, match="boundary of boundary"):
        hh_bruteforce(alg, 8)


def test_face_outside_its_weight_block_is_a_verification_error(monkeypatch):
    # at the top internal degree d(1|x^2) is eliminated but never squared;
    # a face of another weight there is a mismatch, not a crash
    import fpss.thh.hochschild as hochschild
    from fpss.specseq import VerificationError

    alg = Algebra(P, (poly("x", 2), poly("y", 2)))
    honest = hochschild.hochschild_boundary

    def leaky(table, tns, idx):
        out = dict(honest(table, tns, idx))
        if monomials(table, tns) == (alg.unit_mono, alg.mono(x=2)):
            out[idx.setdefault((table.mons.index(alg.mono(y=2)),),
                               len(idx))] = 1
        return out

    monkeypatch.setattr(hochschild, "hochschild_boundary", leaky)
    with pytest.raises(VerificationError, match="weight block"):
        hh_bruteforce(alg, 4)


def test_oracle_work_gate(monkeypatch):
    # the benchmark's oracle run: P(x) (x) E(y), |x| = 2, |y| = 3, to total
    # degree 24 at p = 5.  Each d_n is eliminated once, per weight block and
    # without the cleared columns: a count of Echelon inserts, not a timing
    # (eliminating every d_n twice took 35,815)
    from fpss import fp_linalg

    calls = [0]
    insert = fp_linalg.Echelon.insert

    def counted(self, vec):
        calls[0] += 1
        return insert(self, vec)

    monkeypatch.setattr(fp_linalg.Echelon, "insert", counted)
    alg = Algebra(P, (poly("x", 2), ext("y", 3)))
    got = hh_bruteforce(alg, 24)
    # the lexicographic order of each chain basis keeps this count
    assert calls[0] == 12_480
    assert got == poincare_series(
        Algebra(P, (poly("x", 2), ext("sx", 3), ext("y", 3),
                    divided("sy", 4))), 0, 24)


def test_oracle_computes_each_boundary_once(monkeypatch):
    # the benchmark's oracle run calls hochschild_boundary exactly once per
    # chain tensor C_n(d), n <= top + 1, top = min(d, 24 - d): a count, not
    # a timing
    import fpss.thh.hochschild as hochschild

    seen = []
    honest = hochschild.hochschild_boundary

    def counted(table, tns, idx):
        seen.append(monomials(table, tns))
        return honest(table, tns, idx)

    monkeypatch.setattr(hochschild, "hochschild_boundary", counted)
    alg = Algebra(P, (poly("x", 2), ext("y", 3)))
    hh_bruteforce(alg, 24)
    table = _products(alg, 24)
    chains = [monomials(table, tns) for d in range(25)
              for n in range(min(d, 24 - d) + 2) for tns in tensors(table, n, d)]
    assert len(seen) == len(chains) == 21_303
    assert set(seen) == set(chains)


def per_slot_boundary(alg, tens):
    # the boundary with one total degree per slot for the wrap-around sign
    p, n, out = alg.p, len(tens) - 1, {}

    def put(tensor, coeff):
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
            continue
        put(tens[:i] + (m,) + tens[i + 2:], (-1 if i % 2 else 1) * c)
    prod = alg.mono_mul(tens[n], tens[0])
    if prod is not None:
        m, c = prod
        wrap = alg.total(tens[n]) * sum(alg.total(x) for x in tens[:n])
        put((m,) + tens[1:n], (-1 if (n + wrap) % 2 else 1) * c)
    return out


SIGN_ALGEBRAS = [
    # odd exteriors in two columns, truncated of height 3 and a divided
    # class whose binomials vanish at p = 3
    (3, (ext("a", 1), ext("b", 3), truncated("t", 2, 3), divided("g", 4))),
    # column degrees, an even exterior (truncated of height 2), polynomial
    # and an odd divided class
    (5, (truncated("t", 2, 3), Generator("b", 1, 2, Kind.EXTERIOR),
         ext("c", 4), poly("x", 2), Generator("g", 1, 4, Kind.DIVIDED))),
]


@pytest.mark.parametrize("p, gens", SIGN_ALGEBRAS)
def test_boundary_matches_per_slot_signs(p, gens):
    alg = Algebra(p, gens)
    table = _products(alg, 12)
    checked = 0
    for d in range(13):
        for n in range(d + 1):
            for tns in tensors(table, n, d):
                got = [(monomials(table, t), c)
                       for t, c in faces(table, tns).items()]
                mono_tns = monomials(table, tns)
                assert got == list(per_slot_boundary(alg, mono_tns).items()), \
                    mono_tns
                checked += 1
    assert checked > 5000


@pytest.mark.parametrize("p, gens", SIGN_ALGEBRAS)
def test_product_table_is_mono_mul(p, gens):
    # every pair of degree sum <= hi, and only those, as mono_mul gives it:
    # the divided binomials that vanish at p = 3 and the truncation caps
    # leave None
    alg, hi = Algebra(p, gens), 12
    table = _products(alg, hi)
    mons = table.mons
    assert mons == sorted(mons, key=alg.key) and mons[0] == alg.unit_mono
    assert len(mons) == len(set(mons)) == \
        sum(map(len, alg.basis_monomials_by_total(0, hi).values()))
    vanished = {"divided": 0, "capped": 0}
    for i, a in enumerate(mons):
        assert table.odd[i] == alg.total(a) % 2
        assert len(table.rows[i]) == \
            sum(alg.total(a) + alg.total(b) <= hi for b in mons)
        for j, b in enumerate(mons):
            if alg.total(a) + alg.total(b) > hi:
                continue
            want = alg.mono_mul(a, b)
            got = table.rows[i][j]
            if want is None:
                assert got is None, (a, b)
                capped = any(a[k] + b[k] >= cap for k, cap in alg.caps)
                vanished["capped" if capped else "divided"] += 1
            else:
                assert got is not None and (mons[got[0]], got[1]) == want
    assert vanished["capped"] and (vanished["divided"] > 0) == (p == 3)


DENSE = (ext("t", 1), poly("x", 2), ext("y", 3))
# the ring of zp at p = 5 below 2p^2: btau0, bxi1 and btau1 leave most
# degrees empty, so most partial sums cannot be completed
GAPPED = (ext("btau0", 1), poly("bxi1", 8), ext("btau1", 9))


@pytest.mark.parametrize("gens, hi, n, d", [
    *(pytest.param(DENSE, 9, n, d, id=f"{n}-{d}") for n, d in
      [(0, 0), (0, 5), (1, 1), (1, 6), (2, 5), (2, 8), (3, 7), (4, 8)]),
    *(pytest.param(GAPPED, d, n, d, id=f"gapped-{n}-{d}") for n, d in
      [(1, 9), (2, 17), (2, 18), (3, 19), (3, 26), (4, 20)])])
def test_chain_basis_is_a_filtered_product(gens, hi, n, d):
    # in content and in order: each weight block is the filter of
    # itertools.product over the monomial indices (inner slots nonunit) to
    # that weight, the exponent sum in base hi + 1, in the product's
    # lexicographic order
    alg = Algebra(P, gens)
    table = _products(alg, hi)
    degree = [alg.total(m) for m in table.mons]

    def weight(tns):
        exps = map(sum, zip(*monomials(table, tns)))
        return sum(e * (hi + 1) ** k for k, e in enumerate(exps))

    want = [tns for tns in itertools.product(range(len(degree)), repeat=n + 1)
            if sum(degree[k] for k in tns) == d and all(tns[1:])]
    got = _chain_basis(table, n, d)
    assert sum(map(len, got.values())) == len(want) > 0
    assert set(got) == set(map(weight, want))
    for w, block in got.items():
        assert block == [tns for tns in want if weight(tns) == w]
