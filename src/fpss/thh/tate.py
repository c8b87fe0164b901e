"""Closed forms, differential rules, and scripts for the cyclic-group Tate
and homotopy fixed point spectral sequences.

One ambient algebra carries every page: an exterior column class u, a
Laurent class t in column -2, exterior classes lambda2 and eps1b, a Laurent
class mu2, and the finite module part spanned by eps0 and mu0.  Pages are
described by summands; the free exponent is the pure t power (Tate pages)
or the pure mu2 power (homotopy fixed point pages), with the tmu2 power as
the other coordinate:

    tate coordinates:   j = t_exp - mu2_exp,   c = mu2_exp >= 0
    hofix coordinates:  m = mu2_exp - t_exp,   c = t_exp  >= 0

Differentials are the initial suspension rule d(eps0 mu0^(i-1)) = t mu0^i
followed, for each k up to the tower height n, by an odd family moving
eps1b classes, an even family moving powers of t (or mu2) into lambda2
multiples, and one final odd-length family consuming u.  All units are
fixed to 1; every verified statement is unit-invariant.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from ..graded import Algebra, Generator, Kind, Monomial
from ..numerics import rho, vp
from ..specseq import (DerivationRule, DiffRule, FamilyRule, PageComparison,
                       Region, verify_turn)

# exponent slots in the ambient algebra
IU, IT, IL, IM, IE0, IM0, IE1 = range(7)


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


def _pack(a: int, J: int, b: int, M: int, d0: int, i0: int, e: int) -> Monomial:
    return (a, J, b, M, d0, i0, e)


def module_triples(p: int) -> tuple[tuple[int, int, int], ...]:
    """The 2p module generators: eps0^d mu0^i with the top pair replaced by
    the opaque class eps1b."""
    out = [(d0, i0, 0) for d0 in (0, 1) for i0 in range(p)
           if not (d0 == 1 and i0 == p - 1)]
    out.append((0, 0, 1))
    return tuple(out)


PLAIN = ((0, 0, 0),)
PLAIN_E = ((0, 0, 0), (0, 0, 1))

# free-exponent predicates, named for determinism in dumps
Pred = tuple


def _pred_ok(pred: Pred, p: int, x: int) -> bool:
    kind = pred[0]
    if kind == "any":
        return True
    if kind == "zero":
        return x == 0
    if kind == "vp_eq":
        return x != 0 and vp(p, x) == pred[1]
    if kind == "vp_ge":
        return x == 0 or vp(p, x) >= pred[1]
    if kind == "not_div":
        return x % p != 0
    if kind == "res":
        # x = -i mod p^2 with 0 < i < p
        return 0 < (-x) % (p * p) < p
    raise ValueError(f"unknown predicate {pred}")


@dataclass(frozen=True)
class Summand:
    u: tuple[int, ...]
    lam: tuple[int, ...]
    module: tuple[tuple[int, int, int], ...]
    c_hi: int | None            # exclusive bound on the tmu2 power
    pred: Pred


@dataclass
class TateForm:
    """Closed-form page: disjoint summands over the ambient algebra."""

    label: str
    r: int
    algebra: Algebra
    conv: str                    # "tate" or "hofix"
    summands: tuple[Summand, ...]
    provenance: str = "closed-form"

    @property
    def p(self) -> int:
        return self.algebra.p

    def _vert_const(self, b: int, d0: int, i0: int, e: int) -> int:
        p = self.p
        return (2 * p * p - 1) * b + (2 * p - 1) * e + d0 + 2 * i0

    def _monomial(self, a: int, b: int, d0: int, i0: int, e: int,
                  free: int, c: int) -> Monomial:
        if self.conv == "tate":
            return _pack(a, free + c, b, c, d0, i0, e)
        return _pack(a, c, b, free + c, d0, i0, e)

    def basis_at(self, s: int, t: int) -> tuple[Monomial, ...]:
        """One bidegree, enumerated on its own: the oracle for iter_region."""
        p = self.p
        out: list[Monomial] = []
        for sm in self.summands:
            for a in sm.u:
                for b in sm.lam:
                    for d0, i0, e in sm.module:
                        vc = self._vert_const(b, d0, i0, e)
                        if self.conv == "tate":
                            num = t - vc
                            if num % (2 * p * p):
                                continue
                            c = num // (2 * p * p)
                            if c < 0 or (sm.c_hi is not None and c >= sm.c_hi):
                                continue
                            if (-s - a) % 2:
                                continue
                            free = (-s - a) // 2 - c
                        else:
                            if (-s - a) % 2:
                                continue
                            c = (-s - a) // 2
                            if c < 0 or (sm.c_hi is not None and c >= sm.c_hi):
                                continue
                            num = t - vc
                            if num % (2 * p * p):
                                continue
                            free = num // (2 * p * p) - c
                        if _pred_ok(sm.pred, p, free):
                            out.append(self._monomial(a, b, d0, i0, e, free, c))
        out.sort(key=self.algebra.key)
        return tuple(out)

    def iter_region(self, region: Region) -> Iterable[Monomial]:
        p = self.p
        for sm in self.summands:
            for a in sm.u:
                for b in sm.lam:
                    for d0, i0, e in sm.module:
                        vc = self._vert_const(b, d0, i0, e)
                        c = 0
                        while sm.c_hi is None or c < sm.c_hi:
                            if self.conv == "tate":
                                # s = total - vc - 2p^2 c must reach s_lo
                                if region.hi - vc - 2 * p * p * c < region.s_lo:
                                    break
                            else:
                                s = -a - 2 * c
                                if s < region.s_lo:
                                    break
                            for total in range(region.lo, region.hi + 1):
                                if self.conv == "tate":
                                    num = vc + (2 * p * p - 2) * c - a - total
                                    if num % 2:
                                        continue
                                    free = num // 2
                                    s = -a - 2 * (free + c)
                                else:
                                    num = total + a + 2 * c - vc
                                    if num % (2 * p * p):
                                        continue
                                    free = num // (2 * p * p) - c
                                    s = -a - 2 * c
                                if not (region.s_lo <= s <= region.s_hi):
                                    continue
                                if _pred_ok(sm.pred, p, free):
                                    yield self._monomial(a, b, d0, i0, e, free, c)
                            c += 1

    def monomials_at_total(self, total: int) -> list[Monomial]:
        """All basis monomials of one total degree; needs every summand to be
        either truncated in the tmu2 power or pinned to free exponent 0."""
        p = self.p
        out: list[Monomial] = []
        for sm in self.summands:
            for a in sm.u:
                for b in sm.lam:
                    for d0, i0, e in sm.module:
                        vc = self._vert_const(b, d0, i0, e)
                        if sm.c_hi is None:
                            if sm.pred[0] != "zero":
                                raise ValueError(
                                    f"summand of {self.label} has unbounded "
                                    f"tmu2 power and free exponent")
                            num = total + a - vc
                            if num % (2 * p * p - 2):
                                continue
                            c = num // (2 * p * p - 2)
                            if c >= 0:
                                out.append(self._monomial(a, b, d0, i0, e, 0, c))
                            continue
                        for c in range(sm.c_hi):
                            if self.conv == "tate":
                                num = vc + (2 * p * p - 2) * c - a - total
                                if num % 2:
                                    continue
                                free = num // 2
                            else:
                                num = total + a - vc - (2 * p * p - 2) * c
                                if num % (2 * p * p):
                                    continue
                                free = num // (2 * p * p)
                            if _pred_ok(sm.pred, p, free):
                                out.append(self._monomial(a, b, d0, i0, e, free, c))
        out.sort(key=self.algebra.key)
        return out


# -- closed forms ---------------------------------------------------------


def _both() -> tuple[int, ...]:
    return (0, 1)


def tate_form(p: int, n: int, stage: str, k: int = 0) -> TateForm:
    """Named closed-form pages of the Tate tower of height n."""
    alg = tate_ambient(p, n)
    S = Summand
    first_p = S(_both(), _both(), PLAIN, 1, ("not_div",))
    first = S(_both(), _both(), PLAIN, 1, ("res",))

    def bs(k_hi: int) -> list[Summand]:
        return [S(_both(), _both(), PLAIN, rho(p, 2 * kk - 3), ("vp_eq", 2 * kk - 2))
                for kk in range(2, k_hi + 1)]

    def cs(k_hi: int) -> list[Summand]:
        return [S(_both(), (1,), PLAIN_E, rho(p, 2 * kk - 2), ("vp_eq", 2 * kk - 1))
                for kk in range(2, k_hi + 1)]

    if stage == "E2":
        sums = [S(_both(), _both(), module_triples(p), None, ("any",))]
        r = 2
    elif stage == "E3":
        sums = [S(_both(), _both(), PLAIN_E, None, ("any",))]
        r = 3
    elif stage == "odd":
        # after the length 2 rho(2k-1) family
        if k == 1:
            sums = [first_p,
                    S(_both(), _both(), PLAIN_E, None, ("vp_ge", 1))]
        else:
            sums = [first] + bs(k) + cs(k - 1) + \
                [S(_both(), _both(), PLAIN_E, None, ("vp_ge", 2 * k - 1))]
        r = 2 * rho(p, 2 * k - 1) + 1
    elif stage == "even":
        sums = [first] + bs(k) + cs(k) + \
            [S(_both(), _both(), PLAIN_E, None, ("vp_ge", 2 * k))]
        r = 2 * rho(p, 2 * k) + 1
    elif stage == "Einf":
        sums = [first] + bs(n) + cs(n) + \
            [S((0,), _both(), PLAIN_E, rho(p, 2 * n - 2) + 1, ("vp_ge", 2 * n))]
        r = 2 * rho(p, 2 * n) + 2
    else:
        raise ValueError(stage)
    label = f"tate:cp:{n}:{stage}" + (f":{k}" if stage in ("odd", "even") else "")
    return TateForm(label, r, alg, "tate", tuple(sums))


def hofix_form(p: int, n: int, stage: str, k: int = 0) -> TateForm:
    """Named closed-form pages of the homotopy fixed point tower."""
    alg = tate_ambient(p, n)
    S = Summand
    mu0_first = S(_both(), _both(),
                  tuple((0, i, 0) for i in range(1, p)), 1, ("any",))

    def bs(k_hi: int) -> list[Summand]:
        return [S(_both(), _both(), PLAIN, rho(p, 2 * kk - 1), ("vp_eq", 2 * kk - 2))
                for kk in range(1, k_hi + 1)]

    def cs(k_hi: int) -> list[Summand]:
        return [S(_both(), (1,), PLAIN_E, rho(p, 2 * kk), ("vp_eq", 2 * kk - 1))
                for kk in range(1, k_hi + 1)]

    if stage == "E2":
        sums = [S(_both(), _both(), module_triples(p), None, ("any",))]
        r = 2
    elif stage == "E3":
        sums = [mu0_first, S(_both(), _both(), PLAIN_E, None, ("any",))]
        r = 3
    elif stage == "odd":
        sums = [mu0_first] + bs(k) + cs(k - 1) + \
            [S(_both(), _both(), PLAIN_E, None, ("vp_ge", 2 * k - 1))]
        r = 2 * rho(p, 2 * k - 1) + 1
    elif stage == "even":
        sums = [mu0_first] + bs(k) + cs(k) + \
            [S(_both(), _both(), PLAIN_E, None, ("vp_ge", 2 * k))]
        r = 2 * rho(p, 2 * k) + 1
    elif stage == "Einf":
        sums = [mu0_first] + bs(n) + cs(n) + \
            [S((0,), _both(), PLAIN_E, rho(p, 2 * n) + 1, ("vp_ge", 2 * n))]
        r = 2 * rho(p, 2 * n) + 2
    else:
        raise ValueError(stage)
    label = f"hofix:cp:{n}:{stage}" + (f":{k}" if stage in ("odd", "even") else "")
    return TateForm(label, r, alg, "hofix", tuple(sums))


# -- differential rules ---------------------------------------------------


def d2_rule(p: int, n: int) -> DerivationRule:
    """Initial differential: the suspension sends eps0 mu0^(i-1) to mu0^i."""
    alg = tate_ambient(p, n)
    return DerivationRule(2, "d2", {"eps0": alg.elem(t=1, mu0=1)})


def tate_odd_rule(p: int, n: int, k: int) -> FamilyRule:
    delta = p ** (2 * k - 1) - p ** (2 * k)
    inc = rho(p, 2 * k - 3)
    r = 2 * rho(p, 2 * k - 1)

    def fn(alg: Algebra, m: Monomial):
        a, J, b, M, d0, i0, e = m
        if e != 1 or d0 or i0:
            return []
        j = J - M - delta
        if j == 0 or vp(p, j) != 2 * k - 2:
            return []
        c = M + inc
        return [(_pack(a, j + c, b, c, 0, 0, 0), 1)]

    return FamilyRule(r, f"tate-odd:{k}", fn)


def tate_even_rule(p: int, n: int, k: int) -> FamilyRule:
    r = 2 * rho(p, 2 * k)
    inc = rho(p, 2 * k - 2)

    def fn(alg: Algebra, m: Monomial):
        a, J, b, M, d0, i0, e = m
        if b or d0 or i0:
            return []
        j = J - M
        if k == 1:
            # derivation in t^p over the residue classes t^(-i), 0 <= i < p
            q, rem = divmod(j, p)
            if rem:
                q += 1
            if q % p == 0:
                return []
        else:
            if j == 0 or vp(p, j) != 2 * k - 1:
                return []
        jj = j + p ** (2 * k)
        c = M + inc
        return [(_pack(a, jj + c, 1, c, 0, 0, e), 1)]

    return FamilyRule(r, f"tate-even:{k}", fn)


def tate_final_rule(p: int, n: int) -> FamilyRule:
    r = 2 * rho(p, 2 * n) + 1
    inc = rho(p, 2 * n - 2) + 1

    def fn(alg: Algebra, m: Monomial):
        a, J, b, M, d0, i0, e = m
        if a != 1 or d0 or i0:
            return []
        j = J - M
        if j != 0 and vp(p, j) < 2 * n:
            return []
        jj = j + p ** (2 * n)
        c = M + inc
        return [(_pack(0, jj + c, b, c, 0, 0, e), 1)]

    return FamilyRule(r, f"tate-final:{n}", fn)


def hofix_odd_rule(p: int, n: int, k: int) -> FamilyRule:
    delta = p ** (2 * k) - p ** (2 * k - 1)
    inc = rho(p, 2 * k - 1)
    r = 2 * rho(p, 2 * k - 1)

    def fn(alg: Algebra, m: Monomial):
        a, J, b, M, d0, i0, e = m
        if e != 1 or d0 or i0:
            return []
        mm = M - J - delta
        if mm == 0 or vp(p, mm) != 2 * k - 2:
            return []
        c = J + inc
        return [(_pack(a, c, b, mm + c, 0, 0, 0), 1)]

    return FamilyRule(r, f"hofix-odd:{k}", fn)


def hofix_even_rule(p: int, n: int, k: int) -> FamilyRule:
    shift = p ** (2 * k)
    inc = rho(p, 2 * k)
    r = 2 * rho(p, 2 * k)

    def fn(alg: Algebra, m: Monomial):
        a, J, b, M, d0, i0, e = m
        if b or d0 or i0:
            return []
        mm = M - J
        if mm == 0 or vp(p, mm) != 2 * k - 1:
            return []
        c = J + inc
        return [(_pack(a, c, 1, mm - shift + c, 0, 0, e), 1)]

    return FamilyRule(r, f"hofix-even:{k}", fn)


def hofix_final_rule(p: int, n: int) -> FamilyRule:
    r = 2 * rho(p, 2 * n) + 1
    inc = rho(p, 2 * n) + 1

    def fn(alg: Algebra, m: Monomial):
        a, J, b, M, d0, i0, e = m
        if a != 1 or d0 or i0:
            return []
        mm = M - J
        if mm != 0 and vp(p, mm) < 2 * n:
            return []
        c = J + inc
        return [(_pack(0, c, b, mm - p ** (2 * n) + c, 0, 0, e), 1)]

    return FamilyRule(r, f"hofix-final:{n}", fn)


# -- instances ------------------------------------------------------------


@dataclass(frozen=True)
class Stage:
    r: int
    rule: DiffRule
    before: TateForm
    after: TateForm


@dataclass(frozen=True)
class SSInstance:
    id: str
    p: int
    n: int
    algebra: Algebra
    stages: tuple[Stage, ...]

    def forms(self) -> list[TateForm]:
        out = [self.stages[0].before]
        out.extend(st.after for st in self.stages)
        return out

    def form_at(self, r) -> TateForm:
        if r == "inf":
            return self.stages[-1].after
        if not isinstance(r, int) or r < 2:
            raise ValueError(f"no page {r} for {self.id}")
        current = self.stages[0].before
        for st in self.stages:
            if r >= st.r + 1:
                current = st.after
            else:
                break
        return current


@lru_cache(maxsize=None)
def tate_instance(p: int, n: int) -> SSInstance:
    stages = [Stage(2, d2_rule(p, n), tate_form(p, n, "E2"), tate_form(p, n, "E3"))]
    prev = tate_form(p, n, "E3")
    for k in range(1, n + 1):
        after_odd = tate_form(p, n, "odd", k)
        stages.append(Stage(2 * rho(p, 2 * k - 1), tate_odd_rule(p, n, k),
                            prev, after_odd))
        after_even = tate_form(p, n, "even", k)
        stages.append(Stage(2 * rho(p, 2 * k), tate_even_rule(p, n, k),
                            after_odd, after_even))
        prev = after_even
    stages.append(Stage(2 * rho(p, 2 * n) + 1, tate_final_rule(p, n),
                        prev, tate_form(p, n, "Einf")))
    return SSInstance(f"tate:cp:{n}", p, n, tate_ambient(p, n), tuple(stages))


@lru_cache(maxsize=None)
def hofix_instance(p: int, n: int) -> SSInstance:
    stages = [Stage(2, d2_rule(p, n), hofix_form(p, n, "E2"),
                    hofix_form(p, n, "E3"))]
    prev = hofix_form(p, n, "E3")
    for k in range(1, n + 1):
        after_odd = hofix_form(p, n, "odd", k)
        stages.append(Stage(2 * rho(p, 2 * k - 1), hofix_odd_rule(p, n, k),
                            prev, after_odd))
        after_even = hofix_form(p, n, "even", k)
        stages.append(Stage(2 * rho(p, 2 * k), hofix_even_rule(p, n, k),
                            after_odd, after_even))
        prev = after_even
    stages.append(Stage(2 * rho(p, 2 * n) + 1, hofix_final_rule(p, n),
                        prev, hofix_form(p, n, "Einf")))
    return SSInstance(f"hofix:cp:{n}", p, n, tate_ambient(p, n), tuple(stages))


def instance_region(p: int, n: int, lo: int, hi: int, conv: str) -> Region:
    """Column range wide enough to exercise every family in the window."""
    base_c = (hi - lo) // (2 * p * p - 2) + 5
    if conv == "tate":
        inc = rho(p, 2 * n - 2) + 1
        c_max = base_c + inc + 4
        s_lo = lo - (2 * p * p + 4 * p) - 2 * p * p * c_max
    else:
        inc = rho(p, 2 * n) + 1
        c_max = base_c + inc + 4
        s_lo = -2 * c_max - 4
    return Region(lo, hi, s_lo, hi + 4)


def run_instance(inst: SSInstance, lo: int, hi: int,
                 region: Region | None = None) -> list[PageComparison]:
    """Re-seed every stage from its closed form, turn the page, and certify
    the homology against the next closed form."""
    conv = inst.stages[0].before.conv
    if region is None:
        region = instance_region(inst.p, inst.n, lo, hi, conv)
    out = []
    for st in inst.stages:
        out.append(verify_turn(st.before, st.rule, st.after, region))
    return out


def cp_tate_run(p: int, lo: int, hi: int) -> list[PageComparison]:
    """Full verification of the order p Tate tower."""
    return run_instance(tate_instance(p, 1), lo, hi)


def cpn_tate_run(p: int, n: int, lo: int, hi: int) -> list[PageComparison]:
    """Full verification of the height n Tate tower."""
    return run_instance(tate_instance(p, n), lo, hi)


def cpn_hofix_run(p: int, n: int, lo: int, hi: int) -> list[PageComparison]:
    """Full verification of the height n homotopy fixed point tower."""
    return run_instance(hofix_instance(p, n), lo, hi)


def relabeling_agreement(p: int, n: int, lo: int, hi: int
                         ) -> tuple[bool, list[str]]:
    """Pages before the final odd differential agree for towers of heights
    n and n+1, up to renaming the column class."""
    inst_a, inst_b = tate_instance(p, n), tate_instance(p, n + 1)
    bound = 2 * rho(p, 2 * n) + 1
    region = instance_region(p, n, lo, hi, "tate")
    forms_a = [f for f in inst_a.forms() if f.r <= bound]
    forms_b = [f for f in inst_b.forms() if f.r <= bound]
    problems: list[str] = []
    if len(forms_a) != len(forms_b):
        problems.append(f"page counts differ: {len(forms_a)} vs {len(forms_b)}")
        return False, problems
    for fa, fb in zip(forms_a, forms_b):
        da: dict[tuple[int, int], int] = {}
        for m in fa.iter_region(region):
            bd = fa.algebra.bidegree(m)
            da[bd] = da.get(bd, 0) + 1
        db: dict[tuple[int, int], int] = {}
        for m in fb.iter_region(region):
            bd = fb.algebra.bidegree(m)
            db[bd] = db.get(bd, 0) + 1
        if da != db:
            bad = next(bd for bd in sorted(set(da) | set(db))
                       if da.get(bd, 0) != db.get(bd, 0))
            problems.append(
                f"{fa.label} vs {fb.label}: dims differ at (s={bad[0]}, "
                f"t={bad[1]})")
    return not problems, problems
