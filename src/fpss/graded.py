"""Monomial bases and products for bigraded commutative algebras over F_p.

An algebra is an ordered tensor product of one-generator pieces: exterior,
polynomial, Laurent, truncated polynomial, or divided power.  Monomials are
dense exponent tuples aligned with the generator list; elements are maps
from monomials to nonzero scalars.  The canonical monomial order (total
degree, then exponent tuple) is fixed once so that every basis listed
downstream is deterministic.

Each algebra compiles its generator kinds into slot tables once: the
exponent bound of each exterior or truncated slot (caps), the slots with
lower bound 0 (nonneg: all but Laurent), the odd slots in descending order
(odd_slots) and the divided slots (divided_slots).  Per-monomial work
(valid_mono, mono_mul, the Leibniz sign in specseq) reads these tables,
never a generator's kind.
"""
from __future__ import annotations

from enum import Enum
from operator import mul

from .numerics import binom_mod_p, is_prime


class Kind(Enum):
    EXTERIOR = "exterior"
    POLYNOMIAL = "polynomial"
    LAURENT = "laurent"
    TRUNCATED = "truncated"
    DIVIDED = "divided"


class Generator:
    """A named generator with column degree s and internal degree t.

    For a divided-power generator the exponent j stands for the basis
    element gamma_j, which sits in bidegree (j*s, j*t).
    """

    __slots__ = ("name", "s", "t", "kind", "height")

    def __init__(self, name: str, s: int, t: int, kind: Kind,
                 height: int = 0) -> None:
        if kind is Kind.TRUNCATED and height < 2:
            raise ValueError(f"truncated generator {name} needs height >= 2")
        self.name, self.s, self.t, self.kind, self.height = \
            name, s, t, kind, height

    def _value(self) -> tuple:
        return self.name, self.s, self.t, self.kind, self.height

    def __eq__(self, other) -> bool:
        return type(other) is Generator and self._value() == other._value()

    def __hash__(self) -> int:
        return hash(self._value())

    def __repr__(self) -> str:
        return f"Generator{self._value()!r}"

    @property
    def total(self) -> int:
        return self.s + self.t

    @property
    def odd(self) -> bool:
        return (self.s + self.t) % 2 == 1


Monomial = tuple[int, ...]
Element = dict[Monomial, int]


def _normalize_gen(g: Generator) -> Generator:
    # an "exterior" generator of even total degree squares to zero all the
    # same; model it as height-2 truncated so no Koszul sign is attached
    if g.kind is Kind.EXTERIOR and not g.odd:
        return Generator(g.name, g.s, g.t, Kind.TRUNCATED, 2)
    return g


class Algebra:
    """Tensor product of one-generator pieces over F_p, in a fixed order.

    Equality and hash are those of (p, gens), gens normalized; the other
    slots are tables derived from them."""

    __slots__ = ("p", "gens", "s_weights", "t_weights", "total_weights",
                 "caps", "nonneg", "odd_slots", "divided_slots", "slot_of",
                 "rule_slots")

    def __init__(self, p: int, gens: tuple[Generator, ...]) -> None:
        if not is_prime(p) or p < 3:
            raise ValueError(f"ground field needs an odd prime, got {p}")
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        self.p, self.gens = p, tuple(_normalize_gen(g) for g in gens)
        # per-generator column, internal and total degrees, aligned with gens
        self.s_weights = tuple(g.s for g in self.gens)
        self.t_weights = tuple(g.t for g in self.gens)
        self.total_weights = tuple(g.total for g in self.gens)
        # the slot tables of the module docstring, and each generator's slot
        slots = tuple(enumerate(self.gens))
        self.caps = tuple(
            (i, 2 if g.kind is Kind.EXTERIOR else g.height) for i, g in slots
            if g.kind in (Kind.EXTERIOR, Kind.TRUNCATED))
        self.nonneg = tuple(i for i, g in slots if g.kind is not Kind.LAURENT)
        self.odd_slots = tuple(i for i, g in reversed(slots) if g.odd)
        self.divided_slots = tuple(
            i for i, g in slots if g.kind is Kind.DIVIDED)
        self.slot_of = {g.name: i for i, g in slots}
        # a Leibniz rule's generator names -> their slots, ascending
        self.rule_slots: dict[tuple[str, ...], tuple[int, ...]] = {}

    def __eq__(self, other) -> bool:
        return type(other) is Algebra and self.p == other.p and \
            self.gens == other.gens

    def __hash__(self) -> int:
        return hash((self.p, self.gens))

    def __repr__(self) -> str:
        return f"Algebra(p={self.p}, gens={self.gens!r})"

    # -- monomials ------------------------------------------------------

    @property
    def unit_mono(self) -> Monomial:
        return (0,) * len(self.gens)

    def index(self, name: str) -> int:
        return self.slot_of[name]

    def mono(self, **exps: int) -> Monomial:
        e = [0] * len(self.gens)
        for name, v in exps.items():
            e[self.index(name)] = v
        m = tuple(e)
        if not self.valid_mono(m):
            raise ValueError(f"invalid exponents {exps}")
        return m

    def valid_mono(self, m: Monomial) -> bool:
        if len(m) != len(self.gens):
            return False
        for i in self.nonneg:
            if m[i] < 0:
                return False
        for i, cap in self.caps:
            if m[i] >= cap:
                return False
        return True

    def sdeg(self, m: Monomial) -> int:
        return sum(map(mul, self.s_weights, m))

    def total(self, m: Monomial) -> int:
        return sum(map(mul, self.total_weights, m))

    def bidegree(self, m: Monomial) -> tuple[int, int]:
        return (sum(map(mul, self.s_weights, m)),
                sum(map(mul, self.t_weights, m)))

    def key(self, m: Monomial):
        """Canonical monomial sort key: total degree, then exponent tuple."""
        return (sum(map(mul, self.total_weights, m)), m)

    def mono_str(self, m: Monomial) -> str:
        parts = []
        for g, e in zip(self.gens, m):
            if not e:
                continue
            if g.kind is Kind.DIVIDED:
                parts.append(f"{g.name}[{e}]")
            elif e == 1:
                parts.append(g.name)
            else:
                parts.append(f"{g.name}^{e}")
        return "*".join(parts) if parts else "1"

    # -- elements -------------------------------------------------------

    def elem(self, coeff: int = 1, **exps: int) -> Element:
        c = coeff % self.p
        return {self.mono(**exps): c} if c else {}

    def add(self, a: Element, b: Element) -> Element:
        out = dict(a)
        for m, c in b.items():
            v = (out.get(m, 0) + c) % self.p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return out

    def scale(self, a: Element, c: int) -> Element:
        c %= self.p
        if not c:
            return {}
        return {m: (v * c) % self.p for m, v in a.items()}

    def mono_mul(self, m1: Monomial, m2: Monomial) -> tuple[Monomial, int] | None:
        """Product of two monomials: merged exponents with the Koszul sign
        and divided-power binomial; None when the product vanishes."""
        for i, cap in self.caps:
            if m1[i] + m2[i] >= cap:
                return None
        # moving each odd factor of m2 left past the higher-index odd part of m1
        swaps = tail_odd = 0
        for i in self.odd_slots:
            swaps += m2[i] * tail_odd
            tail_odd += m1[i]
        coeff = -1 if swaps % 2 else 1
        for i in self.divided_slots:
            if m1[i] and m2[i]:
                coeff *= binom_mod_p(self.p, m1[i], m2[i])
                if not coeff:
                    return None
        return tuple([e1 + e2 for e1, e2 in zip(m1, m2)]), coeff % self.p

    def mul(self, a: Element, b: Element) -> Element:
        out: Element = {}
        mono_mul, p = self.mono_mul, self.p
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                r = mono_mul(m1, m2)
                if r is None:
                    continue
                m, c = r
                v = (out.get(m, 0) + c1 * c2 * c) % p
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return out

    # -- bases ----------------------------------------------------------

    def basis_in_bidegree(self, s: int, t: int) -> list[Monomial]:
        """All monomials of bidegree (s, t), in canonical order.

        Every generator needs s >= 0, t >= 0 and positive total degree, so
        the (s, t) budget left bounds each exponent; the recursion runs the
        slots in order with rising exponents, which is the canonical order
        within one total degree.  Other generators raise.
        """
        for g in self.gens:
            if g.kind is Kind.LAURENT or g.s < 0 or g.t < 0 or g.total <= 0:
                raise ValueError(
                    f"bidegree enumeration impossible: generator {g.name} "
                    f"({g.kind.value}, bidegree ({g.s}, {g.t}))")
        out: list[Monomial] = []
        sw, tw, caps = self.s_weights, self.t_weights, dict(self.caps)
        n = len(sw)

        def rec(i: int, rem_s: int, rem_t: int, acc: tuple[int, ...]):
            if i == n:
                if not rem_s and not rem_t:
                    out.append(acc)
                return
            e_hi = caps.get(i, rem_s + rem_t + 1) - 1
            if sw[i]:
                e_hi = min(e_hi, rem_s // sw[i])
            if tw[i]:
                e_hi = min(e_hi, rem_t // tw[i])
            for e in range(e_hi + 1):
                rec(i + 1, rem_s - e * sw[i], rem_t - e * tw[i], acc + (e,))

        rec(0, s, t, ())     # a negative s or t never reaches a zero budget
        return out

    def basis_monomials_by_total(self, lo: int, hi: int) -> dict[int, list[Monomial]]:
        """Monomials bucketed by total degree over [lo, hi]; requires every
        generator to have positive total degree."""
        for g in self.gens:
            if g.total <= 0 or g.kind is Kind.LAURENT:
                raise ValueError(
                    f"total-degree enumeration needs positive finite degrees; "
                    f"generator {g.name} is unbounded")
        out: dict[int, list[Monomial]] = {d: [] for d in range(lo, hi + 1)}
        weights, caps = self.total_weights, dict(self.caps)

        def rec(i: int, budget: int, acc: list[int]):
            if i == len(weights):
                d = hi - budget     # the monomial's total degree
                if lo <= d <= hi:
                    out[d].append(tuple(acc))
                return
            w = weights[i]
            for e in range(min(budget // w, caps.get(i, budget + 1) - 1) + 1):
                rec(i + 1, budget - e * w, acc + [e])

        rec(0, hi, [])
        for d in out:
            out[d].sort(key=self.key)
        return out


# -- Poincare series ----------------------------------------------------


class PoincareSeries:
    """Dimension-per-total-degree table over a closed degree window."""

    __slots__ = ("lo", "hi", "dims")

    def __init__(self, lo: int, hi: int, dims: tuple[int, ...]) -> None:
        if len(dims) != hi - lo + 1:
            raise ValueError("window/dims length mismatch")
        self.lo, self.hi, self.dims = lo, hi, dims

    def __eq__(self, other) -> bool:
        return type(other) is PoincareSeries and (
            self.lo, self.hi, self.dims) == (other.lo, other.hi, other.dims)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.dims))

    def __repr__(self) -> str:
        return f"PoincareSeries(lo={self.lo}, hi={self.hi}, dims={self.dims})"

    def get(self, d: int) -> int:
        if self.lo <= d <= self.hi:
            return self.dims[d - self.lo]
        raise KeyError(f"degree {d} outside window [{self.lo}, {self.hi}]")

    def items(self):
        return ((self.lo + i, v) for i, v in enumerate(self.dims))

    @classmethod
    def from_counts(cls, lo: int, hi: int, counts: dict[int, int]) -> "PoincareSeries":
        return cls(lo, hi, tuple(counts.get(d, 0) for d in range(lo, hi + 1)))

    def mul(self, other: "PoincareSeries") -> "PoincareSeries":
        """Truncated product; both series must start at degree 0."""
        if self.lo != 0 or other.lo != 0:
            raise ValueError("series product needs both windows to start at 0")
        hi = min(self.hi, other.hi)
        dims = [0] * (hi + 1)
        for i, a in enumerate(self.dims):
            if i > hi or not a:
                continue
            for j, b in enumerate(other.dims):
                if i + j > hi:
                    break
                dims[i + j] += a * b
        return PoincareSeries(0, hi, tuple(dims))

    def restrict(self, lo: int, hi: int) -> "PoincareSeries":
        if lo < self.lo or hi > self.hi:
            raise ValueError("cannot widen a series window")
        return PoincareSeries(lo, hi, self.dims[lo - self.lo:hi - self.lo + 1])


def ps_one_generator(lo: int, hi: int, degree: int, kind: Kind,
                     height: int = 0) -> PoincareSeries:
    if degree <= 0:
        raise ValueError("Poincare series needs positive generator degrees")
    counts: dict[int, int] = {0: 1}
    if kind is Kind.EXTERIOR:
        tops = [degree]
    elif kind is Kind.TRUNCATED:
        tops = [e * degree for e in range(1, height)]
    elif kind in (Kind.POLYNOMIAL, Kind.DIVIDED):
        tops = list(range(degree, hi + 1, degree))
    else:
        raise ValueError("Laurent generators have no Poincare series")
    for d in tops:
        if d <= hi:
            counts[d] = 1
    return PoincareSeries.from_counts(lo, hi, counts)


def poincare_series(alg: Algebra, lo: int, hi: int) -> PoincareSeries:
    """Exact dimensions of an algebra whose generators all have positive
    total degree; Laurent factors make every degree infinite and raise."""
    if lo < 0:
        raise ValueError("algebra series start at degree 0; use lo >= 0")
    out = PoincareSeries.from_counts(0, hi, {0: 1})
    for g in alg.gens:
        if g.kind is Kind.LAURENT or g.total <= 0:
            raise ValueError(f"generator {g.name} gives infinite degrees")
        out = out.mul(ps_one_generator(0, hi, g.total, g.kind, g.height))
    return out.restrict(lo, hi)


def ps_from_degree_list(degrees, lo: int, hi: int) -> PoincareSeries:
    counts: dict[int, int] = {}
    for d in degrees:
        if lo <= d <= hi:
            counts[d] = counts.get(d, 0) + 1
    return PoincareSeries.from_counts(lo, hi, counts)
