"""Closed forms, differential rules, and scripts for the cyclic-group Tate
and homotopy fixed point spectral sequences.

One ambient algebra carries every page: an exterior column class u, a
Laurent class t in column -2, exterior classes lambda2 and eps1b, a Laurent
class mu2, and the finite module part spanned by eps0 and mu0.  Pages are
described by summands in two coordinates: the power c >= 0 of the class
t*mu2, and the exponent of a free class, which is t on Tate pages and mu2
on homotopy fixed point pages:

    tate:   t^(j + c) mu2^c,   j free
    hofix:  t^c mu2^(m + c),   m free

The two towers are one description: everything else that tells them apart
is the convention's row of TOWERS.  One walk enumerates both
(TateForm.iter_region): a class's column and total degree are linear in
the free exponent and in c, and the column minus k times the total (k = 1
for Tate, 0 for homotopy fixed points) does not depend on the free
exponent, so a region bounds c, then the free exponent, in closed form.

Differentials are the initial suspension rule d(eps0 mu0^(i-1)) = t mu0^i
and then one row of rule_rows per family: for each k up to the tower height
n, an odd family moving eps1b classes and an even family moving powers of
the free class into lambda2 multiples, then a final odd-length family
consuming u.  A row is an exterior slot, a predicate on the free exponent,
a tmu2 increment and a free-exponent shift; family_rule makes it a rule.  All
units are fixed to 1; every verified statement is unit-invariant.

Every turn is certified as a matching on summand cells, in every degree
and without visiting a page monomial by monomial.  A page is a union of
cells: a key (u, lambda2 and module exponents), a tmu2 power c and
disjoint p-adic balls {x : x = r mod p^j} of free exponents, the
predicates' balls (_balls).  Balls are nested or disjoint, so their meet,
difference and translation are never finer than the predicates'.  Along c
a key's cell is constant between the tmu2 bounds of the summands that hold
it, and those summands must be disjoint: each form's cell table checks
this once per key, when it is built (_cells).  A turn sends each source key
to an image key, raises c by a constant and translates the guarded balls
by a constant, so its sources go one to one onto their images, and when
the images are page classes that are not sources themselves, the homology
is the page without sources and images (algebraic discrete Morse theory on
summands: Skoldberg, Trans. AMS 358, 2006).  So a key is checked only at
its own cuts: its bounds on the page and in the closed form, and its
preimage's page bounds raised by the turn's increment.  A RuleRow's
matching flips its exterior slot.  The suspension d = x delta reduces to
the module by Leibniz: its values lie on the module generators, so
d(a m) = +-a x delta(m) for a passive monomial a (u, lambda2, t, mu2), and
delta(eps0 mu0^(i-1)) = mu0^i matches module keys, with x = t moving c and
the free exponent.  run_instance sends a turn to verify_turn only when the
certificate's precondition fails or the closed form disagrees.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

from ..graded import Algebra, Generator, Kind, Monomial
from ..numerics import rho
from ..specseq import (Bidegree, DerivationRule, DiffRule, FamilyRule,
                       PageComparison, Region, verify_turn)

# exponent slots in the ambient algebra
IU, IT, IL, IM, IE0, IM0, IE1 = range(7)
# the exponent slots that key a cell: u, lambda2 and the module
KEY = (IU, IL, IE0, IM0, IE1)


@lru_cache(maxsize=None)
def tate_ambient(p: int, n: int) -> Algebra:
    return Algebra(p, (
        Generator(f"u{n}", -1, 0, Kind.EXTERIOR),
        Generator("t", -2, 0, Kind.LAURENT),
        Generator("lambda2", 0, 2 * p * p - 1, Kind.EXTERIOR),
        Generator("mu2", 0, 2 * p * p, Kind.LAURENT),
        Generator("eps0", 0, 1, Kind.EXTERIOR),
        Generator("mu0", 0, 2, Kind.TRUNCATED, p),
        Generator("eps1b", 0, 2 * p - 1, Kind.EXTERIOR),
    ))


def module_triples(p: int) -> tuple[tuple[int, int, int], ...]:
    """The 2p module generators: eps0^d mu0^i with the top pair replaced by
    the opaque class eps1b."""
    out = [(d0, i0, 0) for d0 in (0, 1) for i0 in range(p)
           if not (d0 == 1 and i0 == p - 1)]
    out.append((0, 0, 1))
    return tuple(out)


BOTH = (0, 1)
PLAIN = ((0, 0, 0),)
PLAIN_E = ((0, 0, 0), (0, 0, 1))

# free-exponent predicates: a kind and its valuation, if it takes one (_balls)
Pred = tuple


@lru_cache(maxsize=None)
def _balls(pred: Pred, p: int) -> tuple[int, tuple[int, ...]] | None:
    """The free exponents the predicate accepts, as p-adic balls: a modulus
    M, a power of p, and the sorted residues r of the balls x = r mod M;
    None for zero, which accepts the exponent 0 only."""
    kind = pred[0]
    if kind == "any":
        return 1, (0,)
    if kind == "zero":
        return None
    if kind == "vp_eq":
        # x = i p^v mod p^(v+1) with 0 < i < p
        q = p ** pred[1]
        return q * p, tuple(range(q, q * p, q))
    if kind == "vp_ge":
        return p ** pred[1], (0,)
    if kind == "res":
        # x = -i mod p^2 with 0 < i < p
        return p * p, tuple(range(p * p - p + 1, p * p))
    if kind == "ceil_unit":
        # p does not divide ceil(x / p): x mod p^2 is not 0, -1, ..., -(p-1)
        return p * p, tuple(range(1, p * p - p + 1))
    raise ValueError(f"unknown predicate {pred}")


def _pred_ok(pred: Pred, p: int, x: int) -> bool:
    balls = _balls(pred, p)
    return x == 0 if balls is None else x % balls[0] in balls[1]


def _allowed_steps(balls: tuple[int, tuple[int, ...]] | None, lo: int,
                   hi: int) -> Iterable[int]:
    """The free exponents lo <= x < hi, ascending, in a predicate's balls
    (_balls), one progression per ball; a zero predicate allows 0 alone.
    Balls of two summands are checked for overlap by _cells."""
    if balls is None:
        return range(0, 1) if lo <= 0 < hi else range(0)
    M, ks = balls
    return sorted(x for k in ks for x in range(lo + (k - lo) % M, hi, M))


class Summand(NamedTuple):
    u: tuple[int, ...]
    lam: tuple[int, ...]
    module: tuple[tuple[int, int, int], ...]
    c_hi: int | None            # exclusive bound on the tmu2 power
    pred: Pred


class Tower(NamedTuple):
    """The data that tells one tower convention from the other."""

    free: tuple[int, int]   # (t, mu2) exponents of the free class
    sign: int               # differentials move the free exponent by sign*p^i
    first_block: int        # index k of the first truncated block B_k, C_k
    rho_shift: int          # valuation v blocks are truncated at rho(v + shift)
    # (p, u) -> the summand that stands in for the blocks below the first
    head: Callable[[int, tuple[int, ...]], Summand]
    # (p, lo, c) -> lowest column of a class in total degree >= lo with
    # tmu2 power < c, with slack: the base of every trust region
    s_floor: Callable[[int, int, int], int]

    def bound(self, p: int, v: int) -> int:
        """The exclusive tmu2 bound of the blocks of valuation v."""
        return rho(p, v + self.rho_shift)


TOWERS = {
    # the residue classes t^(-i), 0 < i < p, modulo t^(p^2)
    "tate": Tower((1, 0), 1, 2, -1,
                  lambda p, u: Summand(u, BOTH, PLAIN, 1, ("res",)),
                  lambda p, lo, c: lo - (2 * p * p + 4 * p) - 2 * p * p * c),
    # the powers mu0^i, 0 < i < p, left by d2 in column 0
    "hofix": Tower((0, 1), -1, 1, 1,
                   lambda p, u: Summand(u, BOTH, tuple(
                       (0, i, 0) for i in range(1, p)), 1, ("any",)),
                   lambda p, lo, c: -2 * c - 4),
}


class TateForm(NamedTuple):
    """Closed-form page: disjoint summands over the ambient algebra."""

    label: str
    algebra: Algebra
    conv: str                    # a key of TOWERS
    summands: tuple[Summand, ...]

    @property
    def p(self) -> int:
        return self.algebra.p

    def _vert_const(self, b: int, d0: int, i0: int, e: int) -> int:
        p = self.p
        return (2 * p * p - 1) * b + (2 * p - 1) * e + d0 + 2 * i0

    def _free_degrees(self) -> tuple[int, int, int, int]:
        """(t exponent, mu2 exponent, column, total degree) of the free
        class: (1, 0, -2, -2) for t, (0, 1, 0, 2p^2) for mu2."""
        ft, fm = TOWERS[self.conv].free
        return ft, fm, -2 * ft, 2 * self.p * self.p * fm - 2 * ft

    def in_summand(self, sm: Summand, m: Monomial) -> bool:
        """Whether a monomial of the ambient algebra is a class of the
        summand sm of this page."""
        a, J, b, M, d0, i0, e = m
        tw = TOWERS[self.conv]
        ft, fm = tw.free
        c = fm * J + ft * M     # exponent outside the free slot
        return a in sm.u and b in sm.lam and (d0, i0, e) in sm.module \
            and 0 <= c and (sm.c_hi is None or c < sm.c_hi) \
            and _pred_ok(sm.pred, self.p, tw.sign * (J - M))

    def basis_at(self, s: int, t: int) -> tuple[Monomial, ...]:
        """One bidegree, enumerated on its own: the oracle for iter_region."""
        p = self.p
        out: list[Monomial] = []
        for sm in self.summands:
            for a in sm.u:
                # the t exponent fixes the column, the mu2 exponent the
                # internal degree
                if (-s - a) % 2:
                    continue
                J = (-s - a) // 2
                for b in sm.lam:
                    for d0, i0, e in sm.module:
                        M, rem = divmod(t - self._vert_const(b, d0, i0, e),
                                        2 * p * p)
                        m = (a, J, b, M, d0, i0, e)
                        if not rem and self.in_summand(sm, m):
                            out.append(m)
        out.sort(key=self.algebra.key)
        return tuple(out)

    def total_region(self, lo: int, hi: int) -> Region:
        """A region that holds every class of total degree lo..hi; needs
        every summand to be truncated in the tmu2 power or pinned to free
        exponent 0."""
        # a class of a pinned summand in total degree <= hi has c below this
        c_top = (hi + 1) // (2 * self.p * self.p - 2) + 1
        for sm in self.summands:
            if sm.c_hi is not None:
                c_top = max(c_top, sm.c_hi)
            elif sm.pred[0] != "zero":
                raise ValueError(f"summand of {self.label} has unbounded "
                                 f"tmu2 power and free exponent")
        # Tate columns are at most the total degree, homotopy fixed point
        # columns at most 0
        return Region(lo, hi, TOWERS[self.conv].s_floor(self.p, lo, c_top),
                      max(hi, 0))

    def iter_region(self, region: Region
                    ) -> Iterable[tuple[Bidegree, Monomial]]:
        """The region's classes, each with its bidegree: summand row by
        summand row, free exponent ascending, then tmu2 power c ascending.

        The column s and the total degree of a class are linear in the free
        exponent x and in c, and with k = f_s / f_tot (1 on Tate pages, 0 on
        homotopy fixed point pages) s - k * total does not depend on x.  So
        the region bounds c to one interval, the total window over it bounds
        x, and each allowed x takes the c that its total and column windows
        and c_hi leave."""
        p = self.p
        ft, fm, f_s, f_tot = self._free_degrees()
        step = 2 * p * p - 2        # total degree of t mu2
        k = f_s // f_tot
        g = 2 + k * step            # s - k * total falls by g with c
        lo, hi, s_lo, s_hi = region
        for sm in self.summands:
            balls = _balls(sm.pred, p)
            for a in sm.u:
                for b in sm.lam:
                    for d0, i0, e in sm.module:
                        base = self._vert_const(b, d0, i0, e) - a
                        top = -a - k * base     # s - k * total at c = 0
                        c_lo = max(0, -((s_hi - k * lo - top) // g))
                        c_top = (top - s_lo + k * hi) // g + 1
                        if sm.c_hi is not None:
                            c_top = min(c_top, sm.c_hi)
                        if c_lo >= c_top:
                            continue
                        # f_tot x lies between lo - base - step (c_top - 1)
                        # and hi - base - step c_lo
                        n_lo = lo - base - step * (c_top - 1)
                        n_hi = hi - base - step * c_lo
                        if f_tot < 0:
                            n_lo, n_hi = n_hi, n_lo
                        for x in _allowed_steps(balls, -(-n_lo // f_tot),
                                                n_hi // f_tot + 1):
                            rest, s0 = base + f_tot * x, -a + f_s * x
                            # c in the total window, the column window and
                            # below c_top
                            for c in range(max(0, -((rest - lo) // step),
                                               -((s_hi - s0) // 2)),
                                           min(c_top, (hi - rest) // step + 1,
                                               (s0 - s_lo) // 2 + 1)):
                                s = s0 - 2 * c
                                yield (s, rest + step * c - s), (
                                    a, c + ft * x, b, c + fm * x, d0, i0, e)


# -- closed forms ---------------------------------------------------------


def tower_blocks(conv: str, p: int, u: tuple[int, ...], b_hi: int, c_hi: int,
                 settled: bool = True) -> list[Summand]:
    """The head and the truncated tower blocks: B_k (free exponent of
    valuation 2k-2) up to b_hi and C_k (valuation 2k-1, times lambda2) up to
    c_hi.  Until the differentials below the first block have run
    (settled=False), blocks from index 1 stand in place of the head."""
    tw = TOWERS[conv]
    k_lo = tw.first_block if settled else 1
    out = [tw.head(p, u)] if settled else []
    out += [Summand(u, BOTH, PLAIN, tw.bound(p, 2 * k - 2),
                    ("vp_eq", 2 * k - 2)) for k in range(k_lo, b_hi + 1)]
    out += [Summand(u, (1,), PLAIN_E, tw.bound(p, 2 * k - 1),
                    ("vp_eq", 2 * k - 1)) for k in range(k_lo, c_hi + 1)]
    return out


def tower_form(p: int, n: int, conv: str, stage: str, k: int = 0) -> TateForm:
    """Named closed-form pages of the height n tower of one convention."""
    tw = TOWERS[conv]
    if stage == "E2":
        sums = [Summand(BOTH, BOTH, module_triples(p), None, ("any",))]
    elif stage in ("E3", "odd", "even", "Einf"):
        # differentials run so far: none (E3), 2k-1 (odd k), 2k (even k)
        i = {"E3": 0, "odd": 2 * k - 1, "even": 2 * k, "Einf": 2 * n}[stage]
        sums = tower_blocks(conv, p, BOTH, (i + 1) // 2, i // 2,
                            settled=i >= 2 * tw.first_block - 2)
        if stage == "Einf":
            sums.append(Summand((0,), BOTH, PLAIN_E,
                                tw.bound(p, 2 * n - 1) + 1, ("vp_ge", 2 * n)))
        else:
            sums.append(Summand(BOTH, BOTH, PLAIN_E, None, ("vp_ge", i)))
    else:
        raise ValueError(stage)
    label = f"{conv}:cp:{n}:{stage}" + (
        f":{k}" if stage in ("odd", "even") else "")
    return TateForm(label, tate_ambient(p, n), conv, tuple(sums))


# -- differential rules ---------------------------------------------------


def d2_rule(p: int, n: int) -> DerivationRule:
    """Initial differential: the suspension sends eps0 mu0^(i-1) to mu0^i."""
    alg = tate_ambient(p, n)
    return DerivationRule(2, "d2", {"eps0": alg.elem(t=1, mu0=1)})


class RuleRow(NamedTuple):
    """One tower differential after d2, the family (odd, even or final) of
    index k.  A source has exponent src in the exterior slot, no eps0 or mu0
    factor, and a free exponent that pred accepts; its value flips the slot,
    raises the tmu2 power by inc and moves the free exponent by shift."""

    family: str
    k: int
    slot: int
    src: int
    pred: Pred
    inc: int        # the c_hi of the summand the family lands in
    shift: int
    r: int


def rule_rows(p: int, n: int, conv: str) -> list[RuleRow]:
    """The rows in order: for each k up to n, eps1b classes onto the block
    B_k, then powers of the free class onto lambda2 multiples in C_k (below
    the first block, Tate k = 1, a derivation in t^p over the residue
    classes t^(-i), 0 <= i < p); last, u classes onto the top of Einf."""
    tw = TOWERS[conv]
    rows = []
    for k in range(1, n + 1):
        x = p ** (2 * k)
        even = ("ceil_unit",) if k < tw.first_block else ("vp_eq", 2 * k - 1)
        rows += [RuleRow("odd", k, IE1, 1, ("vp_eq", 2 * k - 2),
                         tw.bound(p, 2 * k - 2), tw.sign * (x - x // p),
                         2 * rho(p, 2 * k - 1)),
                 RuleRow("even", k, IL, 0, even, tw.bound(p, 2 * k - 1),
                         tw.sign * x, 2 * rho(p, 2 * k))]
    return rows + [RuleRow("final", n, IU, 1, ("vp_ge", 2 * n),
                           tw.bound(p, 2 * n - 1) + 1, tw.sign * p ** (2 * n),
                           2 * rho(p, 2 * n) + 1)]


def _change(conv: str, dkey: Iterable[int], inc: int, shift: int
            ) -> Monomial:
    """The exponent change of a value that moves the cell key (u, lambda2
    and module exponents) by dkey, raises the tmu2 power by inc and moves
    the free exponent by shift."""
    du, dl, d0, i0, de = dkey
    dt, dm = (inc + f * shift for f in TOWERS[conv].free)
    return (du, dt, dl, dm, d0, i0, de)


def family_rule(p: int, conv: str, row: RuleRow) -> FamilyRule:
    """The rule of one row: its guard, then one constant exponent shift."""
    slot, src, pred, sign = row.slot, row.src, row.pred, TOWERS[conv].sign
    du, dt, dl, dm, _, _, de = _change(conv, (
        1 - 2 * src if slot == i else 0 for i in KEY), row.inc, row.shift)

    def fn(alg: Algebra, m: Monomial):
        a, J, b, M, d0, i0, e = m
        if m[slot] != src or d0 or i0 or \
                not _pred_ok(pred, p, sign * (J - M)):
            return []
        return [((a + du, J + dt, b + dl, M + dm, 0, 0, e + de), 1)]

    return FamilyRule(row.r, f"{conv}-{row.family}:{row.k}", fn)


# -- instances ------------------------------------------------------------


class Stage(NamedTuple):
    rule: DiffRule
    before: TateForm
    after: TateForm
    row: RuleRow | None     # the row the rule is built from; None for d2


class SSInstance(NamedTuple):
    id: str
    p: int
    n: int
    algebra: Algebra
    stages: tuple[Stage, ...]

    def form_at(self, r) -> TateForm:
        if r == "inf":
            return self.stages[-1].after
        if not isinstance(r, int) or r < 2:
            raise ValueError(f"no page {r} for {self.id}")
        current = self.stages[0].before
        for st in self.stages:
            if r >= st.rule.r + 1:
                current = st.after
            else:
                break
        return current


@lru_cache(maxsize=None)
def tower_instance(p: int, n: int, conv: str) -> SSInstance:
    """The height n tower of one convention, stage by stage."""
    stages = [Stage(d2_rule(p, n), tower_form(p, n, conv, "E2"),
                    tower_form(p, n, conv, "E3"), None)]
    for row in rule_rows(p, n, conv):
        rule = family_rule(p, conv, row)
        stage = "Einf" if row.family == "final" else row.family
        stages.append(Stage(rule, stages[-1].after,
                            tower_form(p, n, conv, stage, row.k), row))
    return SSInstance(f"{conv}:cp:{n}", p, n, tate_ambient(p, n),
                      tuple(stages))


def instance_region(p: int, n: int, lo: int, hi: int, conv: str) -> Region:
    """Column range wide enough to exercise every family in the window."""
    tw = TOWERS[conv]
    base_c = (hi - lo) // (2 * p * p - 2) + 5
    inc = tw.bound(p, 2 * n - 1) + 1
    return Region(lo, hi, tw.s_floor(p, lo, base_c + inc + 4), hi + 4)


# a p-adic ball {x : x = r mod q}, q a power of p and 0 <= r < q
Ball = tuple[int, int]
Cells = dict[tuple[int, ...], list[tuple[int | None, list[Ball]]]]


def _ball_list(pred: Pred, p: int) -> list[Ball] | None:
    """The predicate's balls, disjoint; None for zero."""
    balls = _balls(pred, p)
    return None if balls is None else [(balls[0], r) for r in balls[1]]


def _meet(A: list[Ball], B: list[Ball]) -> list[Ball]:
    """The intersection of two lists of disjoint balls.  Two balls are
    nested or disjoint, and nested ones meet in the smaller."""
    out = []
    for qa, ra in A:
        for qb, rb in B:
            if qa <= qb:
                if rb % qa == ra:
                    out.append((qb, rb))
            elif ra % qb == rb:
                out.append((qa, ra))
    return out


def _minus(A: list[Ball], B: list[Ball], p: int) -> list[Ball]:
    """A without B, as disjoint balls: a ball of A inside a ball of B goes,
    one holding a smaller ball of B splits into its p children, and any
    other stays whole."""
    if not A or not B:
        return A
    out, todo = [], list(A)
    while todo:
        q, r = todo.pop()
        split = False
        for qb, rb in B:
            if qb <= q:
                if r % qb == rb:
                    break
            elif rb % q == r:
                split = True
        else:
            if split:
                todo += [(q * p, r + i * q) for i in range(p)]
            else:
                out.append((q, r))
    return out


def _same(A: list[Ball], B: list[Ball], p: int) -> bool:
    """Whether two lists of disjoint balls hold the same points."""
    return A == B or not _minus(A, B, p) and not _minus(B, A, p)


def _moved(A: list[Ball], shift: int) -> list[Ball]:
    """A translated by shift."""
    return [(q, (r + shift) % q) for q, r in A]


def _cells(form: TateForm) -> Cells | None:
    """The cells of a page or closed form; None when a predicate is zero or
    two summands that hold one key overlap.

    The cells map each key (u, lambda2, eps0, mu0, eps1b) to the tmu2
    bound and free-exponent balls of every summand that holds it, so a
    key's cell is constant between 0 and the bounds listed for it.  This is
    the one overlap check, once per key: every summand that holds a class
    starts at c = 0, so two summands overlap at some c exactly when they
    overlap at c = 0; a summand with c_hi <= 0 holds no class."""
    cells: Cells = {}
    for sm in form.summands:
        balls = _ball_list(sm.pred, form.p)
        if balls is None:
            return None
        for a in sm.u:
            for b in sm.lam:
                for trip in sm.module:
                    cells.setdefault((a, b) + trip, []).append(
                        (sm.c_hi, balls))
    for held in cells.values():
        out: list[Ball] = []
        for c_hi, balls in held:
            if c_hi is None or c_hi > 0:
                if out and _meet(out, balls):
                    return None
                out += balls
    return cells


def _cell(cells: Cells, key: tuple[int, ...], c: int) -> list[Ball]:
    """The free-exponent balls of one key at tmu2 power c, disjoint since
    _cells checked the key's summands for overlap."""
    out: list[Ball] = []
    for c_hi, balls in cells.get(key, ()) if c >= 0 else ():
        if c_hi is None or c < c_hi:
            out += balls
    return out


def _bounds(cells: Cells, key: tuple[int, ...] | None) -> set[int]:
    """The finite tmu2 bounds of the summands that hold the key."""
    return {c_hi for c_hi, _ in cells.get(key, ()) if c_hi is not None}


# a turn as a matching of cells: each source key's image key, the tmu2
# increment inc, the free-exponent shift and the guard's balls
Matching = tuple[dict[tuple[int, ...], tuple[int, ...]], int, int, list[Ball]]


def _d2_matching(st: Stage, page: Cells) -> Matching | None:
    """The matching of a derivation d = x delta, by Leibniz reduction to the
    module; None when a precondition fails.

    The rule has values on eps0, mu0 and eps1b only and no power rules, so
    on a page class a m, a a monomial in the passive classes (u, lambda2, t
    and mu2) and m a module monomial, d(a m) = +-a d(m).  When each d(m) is
    0 or one term x delta(m), with the same x for every m and no u or
    lambda2 in x, a x is never 0: d sends every class of the key (u,
    lambda2, m) to one of the key (u, lambda2, delta(m)), moving the tmu2
    power and the free exponent by x's exponents, whatever the free
    exponent is.  _matching_certifies checks that delta(m) is a page
    class and not a source."""
    rule, alg, conv = st.rule, st.before.algebra, st.before.conv
    if not isinstance(rule, DerivationRule) or rule.power_rules or not \
            set(rule.values) <= {alg.gens[i].name for i in (IE0, IM0, IE1)}:
        return None
    delta, xs = {}, set()
    for m in {key[2:] for key in page}:
        val = rule.apply(alg, (0, 0, 0, 0) + m)
        if len(val) > 1:
            return None
        for v in val:
            delta[m] = v[IE0:]
            xs.add(v[:IE0])
    if len(xs) > 1:
        return None
    x = xs.pop() if xs else (0, 0, 0, 0)
    if x[IU] or x[IL]:
        return None     # a zero divisor
    ft, fm = TOWERS[conv].free
    return ({key: key[:2] + delta[key[2:]] for key in page if key[2:] in delta},
            fm * x[IT] + ft * x[IM], TOWERS[conv].sign * (x[IT] - x[IM]),
            [(1, 0)])


def _row_matching(st: Stage, page: Cells) -> Matching | None:
    """The matching of family_rule(row) times the rule's unit; None for a
    zero unit, a zero predicate or a slot other than u, lambda2 or eps1b.

    A page class whose key has exponent src in the row's slot and no eps0
    or mu0, and whose free exponent the row's predicate accepts, goes to
    the class with that slot flipped, the tmu2 power raised by inc and the
    free exponent moved by shift."""
    row, p = st.row, st.before.p
    guard = _ball_list(row.pred, p)
    if not st.rule.unit % p or row.slot not in (IU, IL, IE1) or guard is None:
        return None
    j = KEY.index(row.slot)
    return ({key: key[:j] + (1 - key[j],) + key[j + 1:] for key in page
             if key[j] == row.src and not key[2] and not key[3]},
            row.inc, row.shift, guard)


def _matching_certifies(st: Stage) -> PageComparison | None:
    """A passing comparison for the stage's turn, certified on the summands
    in every degree; None when a precondition fails, two summands of a page
    overlap (checked once per key, by _cells) or a cell disagrees.

    The turn is a matching (_d2_matching for d2, _row_matching for a row):
    a page class with a source key K, tmu2 power c and a free exponent x in
    the guard goes to a unit times the class of K's image key, c + inc and
    x + shift, and every other page class is a cycle.  Each source must
    move by the differential's bidegree, and no image may be a source or
    the image of two, so d after d vanishes.  When every image is a page
    class, the homology is the page without sources and images (algebraic
    discrete Morse theory on summands: Skoldberg, Trans. AMS 358, 2006),
    and it must be the closed form of the same convention.  Both are
    checked per key at its own cuts: 0, inc, the tmu2 bounds of the page
    and closed-form summands that hold the key, and each page bound of its
    preimage plus inc.  Between two of them the key's page cell, its
    closed-form cell and the images arriving from c - inc are constant.
    The guard and the shift are fixed for the turn, so each distinct
    (page, closed form, arrivals, source or not) cell is checked once.  The
    count is the keys and cuts where the page or the closed form holds a
    class."""
    before, after, r = st.before, st.after, st.rule.r
    p, conv, alg = before.p, before.conv, before.algebra
    if after.algebra != alg or after.conv != conv:
        return None
    page, closed = _cells(before), _cells(after)
    if page is None or closed is None:
        return None
    match = (_d2_matching if st.row is None else _row_matching)(st, page)
    if match is None:
        return None
    image, inc, shift, guard = match
    image_of = {img: key for key, img in image.items()}
    if len(image_of) < len(image) or image_of.keys() & image.keys() or any(
            alg.bidegree(_change(conv, (b - a for a, b in zip(key, img)),
                                 inc, shift)) != (-r, r - 1)
            for key, img in image.items()):
        return None
    compared, distinct = 0, set()
    for key in page.keys() | closed.keys() | image_of.keys():
        pre = image_of.get(key)
        cuts = {0, inc} | _bounds(page, key) | _bounds(closed, key) | {
            b + inc for b in _bounds(page, pre)}
        for c in cuts:
            here, want = _cell(page, key, c), _cell(closed, key, c)
            hit = [] if pre is None else _cell(page, pre, c - inc)
            if here or want or hit:
                distinct.add((tuple(here), tuple(want), tuple(hit),
                              key in image))
                compared += bool(here or want)
    for here, want, hit, is_src in distinct:
        here, want = list(here), list(want)
        hit = _moved(_meet(list(hit), guard), shift)
        src = _meet(here, guard) if is_src else []
        if _minus(hit, here, p) or \
                not _same(_minus(_minus(here, src, p), hit, p), want, p):
            return None
    return PageComparison(f"{before.label} -> {after.label}", compared, [])


def run_instance(inst: SSInstance, lo: int, hi: int,
                 region: Region | None = None) -> list[PageComparison]:
    """Re-seed every stage from its closed form, turn the page, and certify
    the homology against the next closed form: every turn as a matching on
    summand cells, and by verify_turn where that declines.  The region,
    instance_region's by default, serves verify_turn only."""
    conv = inst.stages[0].before.conv
    if region is None:
        region = instance_region(inst.p, inst.n, lo, hi, conv)
    return [_matching_certifies(st)
            or verify_turn(st.before, st.rule, st.after, region)
            for st in inst.stages]
