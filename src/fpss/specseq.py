"""Generic page-turning for spectral sequences of F_p modules.

Pages are bidegree-indexed monomial bases inside a trust region; a
differential of length r maps bidegree (s, t) to (s - r, t + r - 1), so it
drops total degree by one.  Page turning computes kernel mod image with
exact sparse linear algebra, bidegree by bidegree.

Closed-form pages enumerate any bidegree exactly, so homology computed
against them has no truncation error and the trust region only selects
which bidegrees get verified.  Computed pages are exact only inside their
region; turning those shrinks the region so that truncation can never
silently produce wrong homology at the boundary.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Protocol

from .fp_linalg import Echelon
from .graded import Algebra, Element, Monomial

Bidegree = tuple[int, int]


class VerificationError(Exception):
    """A structural failure: d after d nonzero, or a rule leaving the page."""


@dataclass(frozen=True)
class Region:
    """Trust region: total degrees in [lo, hi], columns in [s_lo, s_hi]."""

    lo: int
    hi: int
    s_lo: int
    s_hi: int

    def contains(self, s: int, t: int) -> bool:
        return self.lo <= s + t <= self.hi and self.s_lo <= s <= self.s_hi

    def shrink(self, r: int) -> "Region":
        return Region(self.lo + 1, self.hi - 1, self.s_lo + r, self.s_hi - r)

    def widen(self, r: int) -> "Region":
        """The region plus the neighbours a length r differential reaches."""
        return Region(self.lo - 1, self.hi + 1, self.s_lo - r, self.s_hi + r)

    def intersect(self, other: "Region") -> "Region":
        return Region(max(self.lo, other.lo), min(self.hi, other.hi),
                      max(self.s_lo, other.s_lo), min(self.s_hi, other.s_hi))


class Page(Protocol):
    label: str
    r: int
    provenance: str
    algebra: Algebra

    def iter_region(self, region: Region) -> Iterable[Monomial]: ...


@dataclass
class ExplicitPage:
    """Page with an explicit bidegree table; exact only where tabulated."""

    label: str
    r: int
    algebra: Algebra
    table: dict[Bidegree, tuple[Monomial, ...]]
    region: Region | None = None
    provenance: str = "closed-form"
    boundaries: dict[Bidegree, list[Element]] = field(default_factory=dict)

    def iter_region(self, region: Region) -> Iterable[Monomial]:
        for (s, t), monos in self.table.items():
            if region.contains(s, t):
                yield from monos


@dataclass(frozen=True)
class DerivationRule:
    """Differential extended from generator values by the Leibniz rule
    d(xy) = d(x) y + (-1)^|x| x d(y), |x| the total degree.

    values[name] is d(gen); power_rules[name](e) is d(gen^e) for generators
    whose powers are not generated by the single value (divided powers).
    """

    r: int
    name: str
    values: dict[str, Element]
    power_rules: dict[str, Callable[[int], Element]] = field(default_factory=dict)
    unit: int = 1

    def scaled(self, unit: int) -> "DerivationRule":
        return DerivationRule(self.r, f"{self.name}*{unit}", self.values,
                              self.power_rules, unit)

    def apply(self, alg: Algebra, m: Monomial) -> Element:
        return apply_leibniz(self, alg, m)


@dataclass(frozen=True)
class FamilyRule:
    """Differential given directly on monomials.

    fn(algebra, monomial) returns a list of (monomial, coefficient) pairs;
    an empty list means the value is zero.  Units are fixed to 1 by
    convention; all verified outputs are invariant under rescaling.
    """

    r: int
    name: str
    fn: Callable[[Algebra, Monomial], list[tuple[Monomial, int]]]
    unit: int = 1

    def scaled(self, unit: int) -> "FamilyRule":
        return FamilyRule(self.r, f"{self.name}*{unit}", self.fn, unit)

    def apply(self, alg: Algebra, m: Monomial) -> Element:
        out: Element = {}
        for mono, c in self.fn(alg, m):
            if not alg.valid_mono(mono):
                raise VerificationError(
                    f"rule {self.name} leaves the algebra on {alg.mono_str(m)}")
            v = (out.get(mono, 0) + c * self.unit) % alg.p
            if v:
                out[mono] = v
            else:
                out.pop(mono, None)
        return out


DiffRule = DerivationRule | FamilyRule


def apply_leibniz(rule: DerivationRule, alg: Algebra, m: Monomial) -> Element:
    """Leibniz expansion of a derivation-extended rule on one monomial."""
    out: Element = {}
    sign = 1
    for i, (g, e) in enumerate(zip(alg.gens, m)):
        if e:
            dfac = _d_power(rule, alg, i, e)
            if dfac:
                # (prefix) * d(g^e) * (suffix), signed by the prefix degree
                prefix = m[:i] + (0,) * (len(m) - i)
                suffix = (0,) * (i + 1) + m[i + 1:]
                term = alg.mul({prefix: sign % alg.p}, dfac)
                term = alg.mul(term, {suffix: 1})
                out = alg.add(out, term)
            if (g.s + g.t) * e % 2:
                sign = -sign
    if rule.unit != 1:
        out = alg.scale(out, rule.unit)
    return out


def _d_power(rule: DerivationRule, alg: Algebra, i: int, e: int) -> Element:
    g = alg.gens[i]
    if g.name in rule.power_rules:
        return rule.power_rules[g.name](e)
    val = rule.values.get(g.name)
    if not val:
        return {}
    if e == 1:
        return dict(val)
    # g has even degree here (odd generators cannot carry exponent > 1)
    lower = (0,) * i + (e - 1,) + (0,) * (len(alg.gens) - i - 1)
    return alg.scale(alg.mul({lower: 1}, val), e)


def rule_on_element(rule: DiffRule, alg: Algebra, x: Element) -> Element:
    out: Element = {}
    for m, c in x.items():
        out = alg.add(out, alg.scale(rule.apply(alg, m), c))
    return out


_ZERO: Element = {}


class _TurnValues:
    """The rule with each monomial's value computed once per page turn; a
    value that raises is not kept.  Values are shared, every zero value as
    the one _ZERO to save memory, so callers must not mutate them."""

    def __init__(self, rule: DiffRule):
        self.rule, self.name, self.r = rule, rule.name, rule.r
        self.values: dict[Monomial, Element] = {}

    def apply(self, alg: Algebra, m: Monomial) -> Element:
        if m not in self.values:
            self.values[m] = self.rule.apply(alg, m) or _ZERO
        return self.values[m]


def bidegree_table(page: Page, region: Region
                   ) -> dict[Bidegree, tuple[Monomial, ...]]:
    """Every bidegree basis of the page in the region, from one iter_region
    pass, each in canonical order."""
    alg = page.algebra
    buckets: dict[Bidegree, list[Monomial]] = {}
    for m in page.iter_region(region):
        buckets.setdefault(alg.bidegree(m), []).append(m)
    return {bd: tuple(sorted(ms, key=alg.key)) for bd, ms in buckets.items()}


@dataclass
class BidegreeMismatch:
    bidegree: Bidegree
    expected: int
    got: int
    detail: str

    def __str__(self) -> str:
        s, t = self.bidegree
        return (f"(s={s}, t={t}): expected dim {self.expected}, got {self.got}"
                f"{'; ' + self.detail if self.detail else ''}")


@dataclass
class PageComparison:
    label: str
    bidegrees_checked: int
    mismatches: list[BidegreeMismatch]

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = "" if self.passed else f", {len(self.mismatches)} mismatches"
        return f"{status} {self.label} ({self.bidegrees_checked} bidegrees{extra})"


def _columns_for(rule: DiffRule, alg: Algebra, src: tuple[Monomial, ...],
                 dst: tuple[Monomial, ...], where: str) -> list[dict[int, int]]:
    index = {m: i for i, m in enumerate(dst)}
    cols = []
    for m in src:
        val = rule.apply(alg, m)
        col: dict[int, int] = {}
        for mono, c in val.items():
            if mono not in index:
                raise VerificationError(
                    f"rule {rule.name} sends {alg.mono_str(m)} to "
                    f"{alg.mono_str(mono)} outside the page at {where}")
            col[index[mono]] = c
        cols.append(col)
    return cols


def turn_page(page: Page, rule: DiffRule, region: Region,
              dd_check: bool = True) -> ExplicitPage:
    """Compute the next page on every in-region bidegree of the given page.

    Representatives are chosen deterministically: the canonical-order
    monomials of the kernel not pivotal for the image span.  The resulting
    page records image spans so that later well-definedness checks can run.
    """
    alg = page.algebra
    r = rule.r
    rule = _TurnValues(rule)
    exact = page.provenance == "closed-form"
    if exact:
        work = region
    else:
        page_region = getattr(page, "region", None)
        base = region if page_region is None else region.intersect(page_region)
        work = base.shrink(r)
    bases = bidegree_table(page, work.widen(r))

    table: dict[Bidegree, tuple[Monomial, ...]] = {}
    boundaries: dict[Bidegree, list[Element]] = {}
    for s, t in sorted(bd for bd in bases if work.contains(*bd)):
        b1 = bases[(s, t)]
        b0 = bases.get((s + r, t - r + 1), ())
        b2 = bases.get((s - r, t + r - 1), ())
        if dd_check:
            for m in b1:
                dd = rule_on_element(rule, alg, rule.apply(alg, m))
                if dd:
                    raise VerificationError(
                        f"d after d nonzero on {alg.mono_str(m)} at "
                        f"(s={s}, t={t}) for rule {rule.name}")
        out_cols = _columns_for(rule, alg, b1, b2, f"(s={s - r}, t={t + r - 1})")
        in_cols = _columns_for(rule, alg, b0, b1, f"(s={s}, t={t})")

        out_ech = Echelon(alg.p, len(b2))
        for col in out_cols:
            out_ech.insert(dict(col))
        ker_dim = len(b1) - out_ech.rank
        im_ech = Echelon(alg.p, len(b1))
        ims: list[Element] = []
        for col in in_cols:
            if im_ech.insert(dict(col)) is not None:
                ims.append({b1[i]: c for i, c in col.items()})
        # representatives: canonical-order kernel monomials avoiding image pivots
        reps: list[Monomial] = []
        chosen = Echelon(alg.p, len(b1))
        for _, row in sorted(im_ech.rows.items()):
            chosen.insert(dict(row))
        want = ker_dim - im_ech.rank
        if want < 0:
            raise VerificationError(
                f"image exceeds kernel at (s={s}, t={t}) for rule {rule.name}")
        for i, m in enumerate(b1):
            if len(reps) == want:
                break
            if out_cols[i]:
                continue  # not a kernel monomial
            if chosen.insert({i: 1}) is not None:
                reps.append(m)
        if len(reps) != want:
            raise VerificationError(
                f"kernel at (s={s}, t={t}) has no monomial representatives; "
                f"use verification mode for this turn")
        if reps:
            table[(s, t)] = tuple(reps)
        if ims:
            boundaries[(s, t)] = ims

    return ExplicitPage(
        label=f"H({page.label}; {rule.name})", r=r + 1, algebra=alg,
        table=table, region=work, provenance="computed",
        boundaries=boundaries)


def verify_turn(page: Page, rule: DiffRule, after: Page, region: Region,
                dd_check: bool = True) -> PageComparison:
    """Turn the page and certify the homology against a closed form.

    Per bidegree: the homology dimension must match, every closed-form
    monomial must be a cycle, and the closed-form classes must be
    independent from the image.  Together these certify span equality.
    """
    alg = page.algebra
    r = rule.r
    rule = _TurnValues(rule)
    bases = bidegree_table(page, region.widen(r))
    closed_bases = bidegree_table(after, region)
    bds = {bd for bd in bases if region.contains(*bd)} | closed_bases.keys()

    mismatches: list[BidegreeMismatch] = []
    for s, t in sorted(bds):
        b1 = bases.get((s, t), ())
        closed = closed_bases.get((s, t), ())
        if not b1:
            if closed:
                mismatches.append(BidegreeMismatch(
                    (s, t), len(closed), 0, "next page nonzero on an empty bidegree"))
            continue
        b0 = bases.get((s + r, t - r + 1), ())
        b2 = bases.get((s - r, t + r - 1), ())
        if dd_check:
            for m in b1:
                dd = rule_on_element(rule, alg, rule.apply(alg, m))
                if dd:
                    raise VerificationError(
                        f"d after d nonzero on {alg.mono_str(m)} for {rule.name}")
        try:
            out_cols = _columns_for(rule, alg, b1, b2, f"(s={s-r}, t={t+r-1})")
            in_cols = _columns_for(rule, alg, b0, b1, f"(s={s}, t={t})")
        except VerificationError as err:
            mismatches.append(BidegreeMismatch((s, t), -1, -1, str(err)))
            continue
        out_ech = Echelon(alg.p, len(b2))
        for col in out_cols:
            out_ech.insert(dict(col))
        ker_dim = len(b1) - out_ech.rank
        im_ech = Echelon(alg.p, len(b1))
        for col in in_cols:
            im_ech.insert(dict(col))
        hdim = ker_dim - im_ech.rank
        if hdim != len(closed):
            mismatches.append(BidegreeMismatch((s, t), len(closed), hdim, ""))
            continue
        # span certification
        index = {m: i for i, m in enumerate(b1)}
        span = Echelon(alg.p, len(b1))
        for piv, row in im_ech.rows.items():
            span.insert(dict(row))
        ok = True
        for m in closed:
            if m not in index:
                mismatches.append(BidegreeMismatch(
                    (s, t), len(closed), hdim,
                    f"closed-form class {alg.mono_str(m)} not a page monomial"))
                ok = False
                break
            if any(out_cols[index[m]].values()):
                mismatches.append(BidegreeMismatch(
                    (s, t), len(closed), hdim,
                    f"closed-form class {alg.mono_str(m)} is not a cycle"))
                ok = False
                break
            if span.insert({index[m]: 1}) is None:
                mismatches.append(BidegreeMismatch(
                    (s, t), len(closed), hdim,
                    f"closed-form class {alg.mono_str(m)} dependent on the image"))
                ok = False
                break
        if not ok:
            continue
    return PageComparison(label=f"{page.label} -> {after.label}",
                          bidegrees_checked=len(bds), mismatches=mismatches)


def compare_pages(computed: Page, closed: Page, region: Region) -> PageComparison:
    """Per-bidegree dimension and span comparison of two monomial pages."""
    if computed.algebra != closed.algebra:
        raise ValueError("pages live over different algebras")
    creg = getattr(computed, "region", None)
    if creg is not None:
        region = region.intersect(creg)
    computed_bases = bidegree_table(computed, region)
    closed_bases = bidegree_table(closed, region)
    bds = computed_bases.keys() | closed_bases.keys()
    mismatches = []
    for s, t in sorted(bds):
        a = computed_bases.get((s, t), ())
        b = closed_bases.get((s, t), ())
        if len(a) != len(b):
            mismatches.append(BidegreeMismatch((s, t), len(b), len(a), ""))
        elif set(a) != set(b):
            # spans of monomial sets agree exactly when the sets do
            mismatches.append(BidegreeMismatch(
                (s, t), len(b), len(a), "same dimension, different span"))
    return PageComparison(label=f"{computed.label} vs {closed.label}",
                          bidegrees_checked=len(bds), mismatches=mismatches)


def spans_equal(alg: Algebra, basis_a: list[Element], basis_b: list[Element]
                ) -> bool:
    """Whether two lists of elements span the same subspace."""
    universe = sorted({m for x in basis_a + basis_b for m in x}, key=alg.key)
    idx = {m: i for i, m in enumerate(universe)}
    ech_a = Echelon(alg.p, len(universe))
    for x in basis_a:
        ech_a.insert({idx[m]: c for m, c in x.items()})
    ech_b = Echelon(alg.p, len(universe))
    for x in basis_b:
        ech_b.insert({idx[m]: c for m, c in x.items()})
    if ech_a.rank != ech_b.rank:
        return False
    return all(ech_a.contains({idx[m]: c for m, c in x.items()}) for x in basis_b)


def well_definedness_check(page: ExplicitPage, rule: DiffRule) -> PageComparison:
    """Check the rule maps recorded boundary vectors into boundary spans.

    A rule on representatives only descends to homology when it preserves
    the boundary subspace; a violation names the offending vector.
    """
    alg = page.algebra
    mismatches: list[BidegreeMismatch] = []
    n = 0
    for (s, t), vectors in page.boundaries.items():
        target = (s - rule.r, t + rule.r - 1)
        target_vecs = page.boundaries.get(target, [])
        universe: list[Monomial] = sorted(
            {m for v in target_vecs for m in v}, key=alg.key)
        idx = {m: i for i, m in enumerate(universe)}
        ech = Echelon(alg.p, len(universe) + 1)
        for v in target_vecs:
            ech.insert({idx[m]: c for m, c in v.items()})
        for v in vectors:
            n += 1
            val = rule_on_element(rule, alg, v)
            if not val:
                continue
            vec = {}
            outside = False
            for m, c in val.items():
                if m not in idx:
                    outside = True
                    break
                vec[idx[m]] = c
            if outside or not ech.contains(vec):
                witness = alg.elem_str(v)
                mismatches.append(BidegreeMismatch(
                    (s, t), 0, 1,
                    f"boundary {witness} maps outside the boundary span"))
    return PageComparison(label=f"well-definedness of {rule.name}",
                          bidegrees_checked=n, mismatches=mismatches)


def dump_page(page: Page, region: Region) -> str:
    """Text dump: one line per bidegree, ordered by total degree then s."""
    alg = page.algebra
    bases = bidegree_table(page, region)
    lines = []
    for (s, t) in sorted(bases, key=lambda bd: (bd[0] + bd[1], bd[0])):
        monos = bases[(s, t)]
        basis = ",".join(alg.mono_str(m) for m in monos)
        lines.append(f"s={s} t={t} dim={len(monos)} basis={basis}")
    return "\n".join(lines)
