"""Page-turn certificates for spectral sequences of F_p modules.

Pages are bidegree-indexed monomial bases inside a trust region; a
differential of length r maps bidegree (s, t) to (s - r, t + r - 1), so it
drops total degree by one.  A page is read one way: its iter_region yields
each class of a region with its bidegree.  verify_turn certifies that a
closed-form page is the homology of the page before it, bidegree by
bidegree, with exact sparse linear algebra; bidegree_table buckets a
page's classes by bidegree for it.  dump_page needs no buckets: it sorts
the classes of its one walk once.

verify_turn is the elimination reference: in every bidegree it takes
kernel and image by Echelon and certifies the closed form's span.  No
default CLI turn reaches it: the tower and Bokstedt certificates of thh
take every turn in every degree (each tower turn as a matching on
summand cells by algebraic Morse theory, the Bokstedt turn by Kunneth),
verify_turn is their fallback where they decline, and the tests
cross-check each of them against it.

Closed-form pages enumerate any bidegree exactly, so homology computed
against them has no truncation error and the trust region only selects
which bidegrees get verified.
"""
from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Protocol

from .fp_linalg import Echelon
from .graded import Algebra, Element, Monomial

Bidegree = tuple[int, int]


class VerificationError(Exception):
    """A structural failure: d after d nonzero, a rule leaving the page, or
    a tower whose in-window limit the endgame cannot certify."""


class Region(NamedTuple):
    """Trust region: total degrees in [lo, hi], columns in [s_lo, s_hi]."""

    lo: int
    hi: int
    s_lo: int
    s_hi: int

    def contains(self, s: int, t: int) -> bool:
        return self.lo <= s + t <= self.hi and self.s_lo <= s <= self.s_hi

    def widen(self, r: int) -> "Region":
        """The region plus the neighbours a length r differential reaches."""
        return Region(self.lo - 1, self.hi + 1, self.s_lo - r, self.s_hi + r)


class Page(Protocol):
    label: str
    algebra: Algebra

    def iter_region(self, region: Region
                    ) -> Iterable[tuple[Bidegree, Monomial]]: ...


class DerivationRule(NamedTuple):
    """Differential extended from generator values by the Leibniz rule
    d(xy) = d(x) y + (-1)^|x| x d(y), |x| the total degree.

    values[name] is d(gen); power_rules[name](e) is d(gen^e) for generators
    whose powers are not generated by the single value (divided powers).
    apply_leibniz is the one evaluator.
    """

    r: int
    name: str
    values: dict[str, Element]
    power_rules: Mapping[str, Callable[[int], Element]] = MappingProxyType({})
    unit: int = 1

    def scaled(self, unit: int) -> "DerivationRule":
        return DerivationRule(self.r, f"{self.name}*{unit}", self.values,
                              self.power_rules, unit)

    def apply(self, alg: Algebra, m: Monomial) -> Element:
        return apply_leibniz(self, alg, m)


class FamilyRule(NamedTuple):
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
        valid = alg.valid_mono
        for mono, c in self.fn(alg, m):
            if not valid(mono):
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
    """The rule's value on one monomial m = x g^e y: the sum, over the
    rule's generators g in slot order, of (-1)^|x| x d(g^e) y, where d(g^e)
    is g's power rule or e g^(e-1) d(g).

    Only the rule's own slots are visited, sorted once per algebra and
    rule (Algebra.rule_slots).  |x| is the parity of the odd exponents
    before g; each term of d(g) or of the power rule's value is placed by
    two mono_mul calls, x g^(e-1) times the term, then times y, and added
    into the value in place."""
    out: Element = {}
    p, mono_mul, odd = alg.p, alg.mono_mul, alg.odd_slots
    values, power_rules = rule.values, rule.power_rules
    names = (*values, *power_rules)
    slots = alg.rule_slots.get(names)
    if slots is None:
        slots = alg.rule_slots[names] = tuple(
            sorted({alg.slot_of[name] for name in names}))
    for i in slots:
        e = m[i]
        if not e:
            continue
        name = alg.gens[i].name
        power = power_rules.get(name)
        if power is None:
            # g is even when e > 1: odd generators carry no higher power
            terms, low, factor = values[name], e - 1, e
        else:
            terms, low, factor = power(e), 0, 1
        if not terms:
            continue
        sign = -1 if sum(m[j] for j in odd if j < i) % 2 else 1
        unit = sign * factor * rule.unit
        prefix = m[:i] + (low,) + (0,) * (len(m) - i - 1)
        suffix = (0,) * (i + 1) + m[i + 1:]
        for v, c in terms.items():
            head = mono_mul(prefix, v)
            if head is None:
                continue
            whole = mono_mul(head[0], suffix)
            if whole is None:
                continue
            key = whole[0]
            total = (out.get(key, 0) + unit * c * head[1] * whole[1]) % p
            if total:
                out[key] = total
            else:
                out.pop(key, None)
    return out


def rule_on_element(rule: DiffRule, alg: Algebra, x: Element) -> Element:
    out: Element = {}
    for m, c in x.items():
        out = alg.add(out, alg.scale(rule.apply(alg, m), c))
    return out


class _TurnValues:
    """The rule with each monomial's value computed once per page turn: the
    d after d check, the outgoing columns and the incoming columns all read
    it.  A value that raises is not kept.  Callers must not mutate what
    apply returns."""

    def __init__(self, rule: DiffRule):
        self.rule, self.name = rule, rule.name
        self.values: dict[Monomial, Element] = {}

    def apply(self, alg: Algebra, m: Monomial) -> Element:
        v = self.values.get(m)
        if v is None:
            v = self.values[m] = self.rule.apply(alg, m)
        return v


def bidegree_table(page: Page, region: Region
                   ) -> dict[Bidegree, tuple[Monomial, ...]]:
    """Every bidegree basis of the page in the region, from one iter_region
    pass, each in canonical order: one bidegree has one total degree, so
    the exponent tuples alone order it."""
    buckets: dict[Bidegree, list[Monomial]] = {}
    for bd, m in page.iter_region(region):
        buckets.setdefault(bd, []).append(m)
    return {bd: tuple(ms) if len(ms) == 1 else tuple(sorted(ms))
            for bd, ms in buckets.items()}


class BidegreeMismatch:
    __slots__ = ("bidegree", "expected", "got", "detail")

    def __init__(self, bidegree: Bidegree, expected: int, got: int,
                 detail: str) -> None:
        self.bidegree, self.expected, self.got, self.detail = \
            bidegree, expected, got, detail

    def __eq__(self, other) -> bool:
        return type(other) is BidegreeMismatch and (
            self.bidegree, self.expected, self.got, self.detail) == (
            other.bidegree, other.expected, other.got, other.detail)

    def __str__(self) -> str:
        s, t = self.bidegree
        return (f"(s={s}, t={t}): expected dim {self.expected}, got {self.got}"
                f"{'; ' + self.detail if self.detail else ''}")


class PageComparison:
    """One turn's result: its label, its coverage count and its mismatches.

    From verify_turn the count is the bidegrees of the region where the
    page or the closed form holds a class.  From the tower certificate of
    thh.tate it is the summand cells compared, pairs of a key and a tmu2
    cut where the page or the closed form holds a class; from the Bokstedt
    certificate it is the generator slots compared, those of total degree
    at most the window's top.  Those certify every degree."""
    __slots__ = ("label", "bidegrees_checked", "mismatches")

    def __init__(self, label: str, bidegrees_checked: int,
                 mismatches: list[BidegreeMismatch]) -> None:
        self.label, self.bidegrees_checked, self.mismatches = \
            label, bidegrees_checked, mismatches

    def __eq__(self, other) -> bool:
        return type(other) is PageComparison and (
            self.label, self.bidegrees_checked, self.mismatches) == (
            other.label, other.bidegrees_checked, other.mismatches)

    def __repr__(self) -> str:
        return (f"PageComparison({self.label!r}, {self.bidegrees_checked}, "
                f"{[str(m) for m in self.mismatches]})")

    @property
    def passed(self) -> bool:
        return not self.mismatches


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


def verify_turn(page: Page, rule: DiffRule, after: Page, region: Region
                ) -> PageComparison:
    """Turn the page and certify the homology against a closed form by
    elimination, per bidegree.

    The page is tabulated over the region widened by the rule's reach and
    the closed form over the region; the bidegrees checked are the
    region's bidegrees of either.  In each, d after d must vanish, the
    homology dimension must match, every closed-form monomial must be a
    cycle, and the closed-form classes must be independent from the image.
    Together these certify span equality.
    """
    bases = bidegree_table(page, region.widen(rule.r))
    closed_bases = bidegree_table(after, region)
    bds = {bd for bd in bases if region.contains(*bd)} | closed_bases.keys()
    return PageComparison(
        f"{page.label} -> {after.label}", len(bds),
        _echelon_mismatches(page.algebra, _TurnValues(rule), bases,
                            closed_bases, bds, rule.r))


def _echelon_mismatches(alg: Algebra, rule: _TurnValues,
                        bases: dict[Bidegree, tuple[Monomial, ...]],
                        closed_bases: dict[Bidegree, tuple[Monomial, ...]],
                        bds: set[Bidegree], r: int
                        ) -> list[BidegreeMismatch]:
    """Kernel and image by elimination, bidegree by bidegree."""
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
        for m in b1:
            if rule_on_element(rule, alg, rule.apply(alg, m)):
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
        # span certification: each closed-form class must extend the image
        index = {m: i for i, m in enumerate(b1)}
        for m in closed:
            if m not in index:
                mismatches.append(BidegreeMismatch(
                    (s, t), len(closed), hdim,
                    f"closed-form class {alg.mono_str(m)} not a page monomial"))
                break
            if any(out_cols[index[m]].values()):
                mismatches.append(BidegreeMismatch(
                    (s, t), len(closed), hdim,
                    f"closed-form class {alg.mono_str(m)} is not a cycle"))
                break
            if im_ech.insert({index[m]: 1}) is None:
                mismatches.append(BidegreeMismatch(
                    (s, t), len(closed), hdim,
                    f"closed-form class {alg.mono_str(m)} dependent on the image"))
                break
    return mismatches


def dump_page(page: Page, region: Region) -> str:
    """Text dump: one line per bidegree, ordered by total degree then s, each
    basis in canonical order.  One iter_region pass and one sort of (s + t,
    s, monomial) give that whole order, since within one total degree the
    exponent tuples alone order the monomials; each bidegree's line is
    written once, when its run of classes ends.  The text of each power is
    made once, by mono_str on that power alone."""
    alg = page.algebra
    texts: list[dict[int, str]] = [{} for _ in alg.gens]  # [slot][exponent]

    def power(slot: int, e: int) -> str:
        m = tuple(e if i == slot else 0 for i in range(len(texts)))
        text = texts[slot][e] = alg.mono_str(m)
        return text

    lines: list[str] = []
    words: list[str] = []
    d0 = s0 = 0
    for d, s, m in sorted([(s + t, s, m)
                           for (s, t), m in page.iter_region(region)]):
        if words and (s != s0 or d != d0):
            lines.append(f"s={s0} t={d0 - s0} dim={len(words)} "
                         f"basis={','.join(words)}")
            words = []
        d0, s0 = d, s
        words.append("*".join([texts[i].get(e) or power(i, e)
                               for i, e in enumerate(m) if e]) or "1")
    if words:
        lines.append(f"s={s0} t={d0 - s0} dim={len(words)} "
                     f"basis={','.join(words)}")
    return "\n".join(lines)
