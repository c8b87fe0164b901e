import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpss.fp_linalg import Echelon, dense_rank


def echelon_of(p, rows):
    ech = Echelon(p, len(rows[0]) if rows else 0)
    for row in rows:
        ech.insert({c: v for c, v in enumerate(row) if v % p})
    return ech


def sorted_walk_reduce(ech, vec):
    """Echelon.reduce as it walked every pivot in ascending order."""
    p = ech.p
    out = {c: v % p for c, v in vec.items() if v % p}
    for piv in sorted(ech.rows):
        coef = out.get(piv)
        if not coef:
            continue
        for c, v in ech.rows[piv].items():
            w = (out.get(c, 0) - coef * v) % p
            if w:
                out[c] = w
            else:
                out.pop(c, None)
    return out


class EveryRowEchelon:
    """Echelon as it cleared each new pivot from every stored row."""

    def __init__(self, p):
        self.p, self.rows = p, {}

    def insert(self, vec):
        red = sorted_walk_reduce(self, vec)
        if not red:
            return None
        piv = min(red)
        inv = pow(red[piv], -1, self.p)
        row = {c: (v * inv) % self.p for c, v in red.items()}
        for orow in self.rows.values():
            coef = orow.get(piv)
            if coef:
                for c, v in row.items():
                    w = (orow.get(c, 0) - coef * v) % self.p
                    if w:
                        orow[c] = w
                    else:
                        orow.pop(c, None)
        self.rows[piv] = row
        return piv


def test_empty_matrix():
    ech = echelon_of(5, [])
    assert ech.rank == 0 and ech.rows == {}
    assert ech.reduce({}) == {}


def test_identity_rank():
    ech = echelon_of(5, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert ech.rank == 3 and sorted(ech.rows) == [0, 1, 2]


def test_dependent_rows():
    ech = Echelon(5, 2)
    assert ech.insert({0: 1, 1: 2}) == 0
    assert ech.insert({0: 2, 1: 4}) is None
    assert ech.rank == 1


def test_entry_validation():
    ech = Echelon(5, 2)
    with pytest.raises(ValueError):
        ech.insert({3: 1})
    assert ech.rank == 0


def test_older_row_is_cleared_of_a_later_pivot():
    # row 1 holds column 2, which the second insert makes a pivot
    ech = Echelon(5, 3)
    assert ech.insert({1: 1, 2: 1}) == 1
    assert ech.insert({2: 1}) == 2
    assert ech.rows == {1: {1: 1}, 2: {2: 1}}
    assert ech.pivots == [1, 2]


def test_rref_idempotent_examples():
    ech = echelon_of(5, [[1, 2, 3], [4, 0, 1], [0, 2, 2]])
    again = Echelon(5, 3)
    for piv in sorted(ech.rows):
        assert again.insert(dict(ech.rows[piv])) == piv
    assert again.rows == ech.rows


PRIMES = st.sampled_from([2, 3, 5, 7])


@st.composite
def matrices(draw, max_rows=6, max_cols=6):
    p = draw(PRIMES)
    nc = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=nc,
                                  max_size=nc), min_size=1, max_size=max_rows))
    return p, rows


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_rank_nullity_and_oracle(data):
    # the rank is dense_rank's, and the dependent rows number the relations
    p, rows = data
    ech = Echelon(p, len(rows[0]))
    dependent = sum(ech.insert({c: v for c, v in enumerate(row) if v}) is None
                    for row in rows)
    assert ech.rank == dense_rank(p, rows)
    assert ech.rank + dependent == len(rows)
    for row in rows:
        assert ech.reduce(dict(enumerate(row))) == {}


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_rows_monic_and_reduced(data):
    p, rows = data
    ech = echelon_of(p, rows)
    for piv, row in ech.rows.items():
        assert min(row) == piv and row[piv] == 1
        assert all(0 < v < p for v in row.values())
        assert not any(other in row for other in ech.rows if other != piv)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_idempotent(data):
    p, rows = data
    ech = echelon_of(p, rows)
    again = echelon_of(p, [[row.get(c, 0) for c in range(ech.n)]
                           for _, row in sorted(ech.rows.items())]
                       or [[0] * ech.n])
    assert again.rows == ech.rows


@settings(max_examples=80, deadline=None)
@given(matrices(max_rows=8), st.data())
def test_reduce_matches_sorted_walk(data, draw):
    # interleave inserts and reductions; every result equals the old walk
    p, rows = data
    ech = Echelon(p, len(rows[0]))
    for row in rows:
        vec = {c: v for c, v in enumerate(row) if v}
        probe = {c: draw.draw(st.integers(0, p - 1))
                 for c in range(len(row))}
        assert ech.reduce(probe) == sorted_walk_reduce(ech, probe)
        assert ech.reduce(vec) == sorted_walk_reduce(ech, vec)
        ech.insert(vec)


def test_echelon_membership():
    ech = Echelon(5, 3)
    ech.insert({0: 1, 1: 1})
    ech.insert({1: 1, 2: 1})
    assert not ech.reduce({0: 1, 2: 4})
    assert ech.reduce({0: 1, 2: 1})


@settings(max_examples=120, deadline=None)
@given(matrices(max_rows=10, max_cols=8), st.randoms(use_true_random=False))
def test_insert_matches_clearing_every_row(data, rnd):
    # clearing only the rows pivoted below the new pivot gives the same
    # rows and return values as clearing every stored row; half the
    # entries are zeroed, so that later pivots often sit in older rows
    p, rows = data
    rows = [[v if rnd.random() < 0.5 else 0 for v in row] for row in rows]
    ech, ref = Echelon(p, len(rows[0])), EveryRowEchelon(p)
    for row in rows:
        vec = {c: v for c, v in enumerate(row) if v}
        assert ech.insert(vec) == ref.insert(vec)
        assert ech.rows == ref.rows
        assert ech.pivots == sorted(ech.rows)
