"""Endgame bookkeeping: the restriction endomorphism on the circle page,
the block decomposition it induces, kernel and cokernel of R - 1, and the
final free-module presentations with their rank and parity counts.

Monomials of the circle Tate page are classified by the valuation of the
pure t exponent j:

    j = 0                    the A block  E(eps1b, lambda2) (x) P(tmu2)
    p does not divide j      residue classes t^(-i) P(t^(p^2)), c = 0
    v_p(j) = 2k-2, e = 0     tower block B at height k (tmu2 power < rho(2k-3))
    v_p(j) = 2k-1, b = 1     tower block C at height k (tmu2 power < rho(2k-2))

In both tower cases the truncation bound is rho(v_p(j) - 1).  The induced
endomorphism sends t^j to t^(j/p^2) and lowers the tmu2 power by j/p^2;
classes whose image violates a truncation die.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graded import Monomial, PoincareSeries, ps_from_degree_list
from .numerics import rho, vp
from .specseq import VerificationError
from .thh.tate import IE0, IE1, IL, IM, IM0, IT, IU, tate_ambient


def _coords(m: Monomial) -> tuple[int, int, int, int]:
    """(eps1b, lambda2, pure t exponent, tmu2 exponent)."""
    return m[IE1], m[IL], m[IT] - m[IM], m[IM]


def _pack(p: int, e: int, b: int, j: int, c: int) -> Monomial:
    return (0, j + c, b, c, 0, 0, e)


def page_member(p: int, m: Monomial) -> bool:
    """Exact membership in the full circle Tate page (all tower blocks)."""
    if m[IU] or m[IE0] or m[IM0]:
        return False
    e, b, j, c = _coords(m)
    if c < 0:
        return False
    if j == 0:
        return True
    if j % p:
        return c == 0 and e == 0 and 0 < (-j) % (p * p) < p
    v = vp(p, j)
    if v == 1:
        return False
    if v % 2 == 0 and e != 0:
        return False
    if v % 2 == 1 and b != 1:
        return False
    return c < rho(p, v - 1)


def classify(p: int, m: Monomial) -> tuple[str, int]:
    """Block of a circle-page monomial: A, B_k, C_k, or the remainder D."""
    e, b, j, c = _coords(m)
    if j == 0:
        return ("A", 0)
    if j % p:
        return ("D", 0)
    v = vp(p, j)
    if v % 2 == 0:
        k = v // 2 + 1
        d = j // p ** v
        if 0 < d < p * p - p:
            return ("B", k)
        return ("D", k)
    k = (v + 1) // 2
    d = j // p ** v
    if 0 < d < p:
        return ("C", k)
    return ("D", k)


def r_endo(p: int, m: Monomial) -> Monomial | None:
    """The restriction endomorphism on page monomials; None means zero."""
    e, b, j, c = _coords(m)
    if j == 0:
        return m
    if j % (p * p):
        return None
    jt = j // (p * p)
    ct = c - jt
    target = _pack(p, e, b, jt, ct)
    if ct < 0 or not page_member(p, target):
        return None
    return target


def _block_monomials_at(p: int, total: int, kmax: int) -> list[Monomial]:
    """Circle-page monomials of one total degree, tower blocks up to kmax."""
    L, E = 2 * p * p - 1, 2 * p - 1
    step = 2 * p * p - 2
    out: list[Monomial] = []
    for b in (0, 1):
        for e in (0, 1):
            base = total - L * b - E * e
            # the A block: j = 0
            if base % step == 0 and base // step >= 0:
                out.append(_pack(p, e, b, 0, base // step))
            # residue classes: c = 0, p does not divide j
            if e == 0 and base % 2 == 0:
                j = -base // 2
                if j % p and 0 < (-j) % (p * p) < p:
                    out.append(_pack(p, e, b, j, 0))
            # tower blocks
            for v in range(2, 2 * kmax):
                if v % 2 == 0 and e != 0:
                    continue
                if v % 2 == 1 and b != 1:
                    continue
                trunc = rho(p, v - 1)
                pv = p ** v
                # degree: -2 d p^v + step * c + const = total
                d_lo = -(step * trunc + abs(base) + 2 * pv) // (2 * pv) - 2
                d_hi = (abs(base) + step * trunc) // (2 * pv) + 2
                for d in range(d_lo, d_hi + 1):
                    if d == 0 or d % p == 0:
                        continue
                    num = base + 2 * d * pv
                    if num % step:
                        continue
                    c = num // step
                    if 0 <= c < trunc:
                        out.append(_pack(p, e, b, d * pv, c))
    return out


@dataclass
class SummandDecomposition:
    """Monomials of the circle page split into the named blocks."""

    parts: dict[tuple[str, int], list[Monomial]]
    window: tuple[int, int]
    kmax: int

    def count(self, kind: str, k: int = 0) -> int:
        return len(self.parts.get((kind, k), ()))


def tf_decompose(p: int, lo: int, hi: int, kmax: int = 5) -> SummandDecomposition:
    """Partition of the in-window circle page basis; every monomial must be
    classified exactly once."""
    if lo <= 2 * p - 2:
        raise ValueError("the block decomposition needs degrees > 2p-2")
    parts: dict[tuple[str, int], list[Monomial]] = {}
    seen: set[Monomial] = set()
    alg = tate_ambient(p, 0)
    for total in range(lo, hi + 1):
        for m in _block_monomials_at(p, total, kmax):
            if m in seen:
                raise ValueError(f"monomial {alg.mono_str(m)} doubly classified")
            seen.add(m)
            if not page_member(p, m):
                raise ValueError(f"monomial {alg.mono_str(m)} not on the page")
            parts.setdefault(classify(p, m), []).append(m)
    return SummandDecomposition(parts, (lo, hi), kmax)


def rh_map_check(p: int, lo: int, hi: int, kmax: int = 5
                 ) -> tuple[bool, list[str]]:
    """Behavior of the restriction endomorphism, clause by clause:
    identity on A; the height k+1 tower blocks map onto the height k blocks
    with the same leading exponent; everything else dies."""
    if lo <= 2 * p - 2:
        raise ValueError("restriction map bookkeeping needs degrees > 2p-2")
    alg = tate_ambient(p, 0)
    problems: list[str] = []
    stats = {"A": 0, "onto": 0, "zero": 0}
    dec = tf_decompose(p, lo, hi, kmax)
    for (kind, k), monos in sorted(dec.parts.items()):
        for m in monos:
            r = r_endo(p, m)
            if kind == "A":
                if r != m:
                    problems.append(f"A class {alg.mono_str(m)} not fixed")
                stats["A"] += 1
            elif kind == "D" or k == 2:
                if r is not None:
                    problems.append(
                        f"{kind} class {alg.mono_str(m)} maps to "
                        f"{alg.mono_str(r)}, expected zero")
                stats["zero"] += 1
            else:
                if r is not None and classify(p, r) != (kind, k - 1):
                    problems.append(
                        f"{kind}_{k} class {alg.mono_str(m)} maps outside "
                        f"{kind}_{k - 1}")
    # surjectivity onto every in-window block element of height >= 2
    for (kind, k), monos in sorted(dec.parts.items()):
        if kind not in ("B", "C"):
            continue
        for m in monos:
            e, b, j, c = _coords(m)
            pre = _pack(p, e, b, j * p * p, c + j)
            if c + j < 0 or not page_member(p, pre):
                problems.append(
                    f"{kind}_{k} class {alg.mono_str(m)} has no tower "
                    f"preimage")
                continue
            if r_endo(p, pre) != m:
                problems.append(
                    f"preimage of {alg.mono_str(m)} does not map back")
            stats["onto"] += 1
    detail = [f"A fixed: {stats['A']}, killed: {stats['zero']}, "
              f"onto targets: {stats['onto']}, blocks up to {kmax}"]
    return not problems, problems or detail


# -- limits of the towers and the fiber sequence --------------------------


def _d2_range(p: int):
    return [d for d in range(1, p * p - p) if d % p]


def _ker_generator_degrees(p: int) -> list[tuple[str, int]]:
    L, E = 2 * p * p - 1, 2 * p - 1
    gens = [("1", 0), ("eps1b", E), ("lambda2", L), ("eps1b*lambda2", E + L)]
    for d in _d2_range(p):
        gens.append((f"t^{d}", -2 * d))
        gens.append((f"t^{d}*lambda2", -2 * d + L))
    for d in range(1, p):
        gens.append((f"t^{d * p}*lambda2", -2 * d * p + L))
        gens.append((f"eps1b*t^{d * p}*lambda2", -2 * d * p + L + E))
    return gens


def _pv_series(gens: list[tuple[str, int]], p: int, lo: int, hi: int
               ) -> PoincareSeries:
    step = 2 * p * p - 2
    degrees = []
    for _, d in gens:
        dd = d
        while dd <= hi:
            if dd >= lo:
                degrees.append(dd)
            dd += step
    return ps_from_degree_list(degrees, lo, hi)


def _block_params(p: int, kind: str, k: int):
    """(valuation, truncation, leading digits, (e, b) pairs) of the tower
    block B_k or C_k of the circle page."""
    if kind == "B":
        return 2 * k - 2, rho(p, 2 * k - 3), _d2_range(p), [(0, 0), (0, 1)]
    return 2 * k - 1, rho(p, 2 * k - 2), range(1, p), [(0, 1), (1, 1)]


def _in_window(base: int, step: int, trunc: int, lo: int, hi: int) -> range:
    """The tmu2 powers 0 <= c < trunc with base + step * c in [lo, hi]."""
    return range(max(0, -((base - lo) // step)),
                 min(trunc, (hi - base) // step + 1))


def _block_series(p: int, kind: str, k: int, lo: int, hi: int
                  ) -> PoincareSeries:
    """In-window dimensions of one tower block of the circle page."""
    L, E = 2 * p * p - 1, 2 * p - 1
    step = 2 * p * p - 2
    degrees = []
    v, trunc, ds, combos = _block_params(p, kind, k)
    for e, b in combos:
        for d in ds:
            base = -2 * d * p ** v + L * b + E * e
            for c in _in_window(base, step, trunc, lo, hi):
                degrees.append(base + step * c)
    return ps_from_degree_list(degrees, lo, hi)


def r_fixed_points(p: int, lo: int, hi: int
                   ) -> tuple[PoincareSeries, PoincareSeries, list[str]]:
    """Kernel and cokernel series of R - 1 on the window, with the
    stabilization and surjectivity evidence for the tower limits."""
    if lo <= 2 * p - 2:
        raise ValueError("fixed point bookkeeping needs degrees > 2p-2")
    notes: list[str] = []
    ker_gens = _ker_generator_degrees(p)
    ker = _pv_series(ker_gens, p, lo, hi)
    a_gens = ker_gens[:4]
    cok = _pv_series(a_gens, p, lo, hi)

    # limits computed in-window by stabilization of the tower blocks
    for kind, lim_slice in (("B", slice(4, 4 + 2 * (p - 1) ** 2)),
                            ("C", slice(4 + 2 * (p - 1) ** 2, None))):
        lim = _pv_series(ker_gens[lim_slice], p, lo, hi)
        k = 2
        while True:
            cur = _block_series(p, kind, k, lo, hi)
            nxt = _block_series(p, kind, k + 1, lo, hi)
            if cur == lim and nxt == lim:
                notes.append(f"{kind} blocks stabilize at height {k}")
                k_stable = k
                break
            k += 1
            if k > 12:
                raise VerificationError(f"{kind} blocks do not stabilize")
        # each tower step surjects in-window (so the derived limit vanishes)
        for kk in range(2, k_stable + 2):
            ok, bad = _tower_step_onto(p, kind, kk, lo, hi)
            if not ok:
                raise VerificationError(
                    f"tower step {kind}_{kk + 1} -> {kind}_{kk} not onto: {bad}")
        notes.append(f"{kind} tower steps onto up to height {k_stable + 1}")
    return ker, cok, notes


def _tower_step_onto(p: int, kind: str, k: int, lo: int, hi: int
                     ) -> tuple[bool, str]:
    alg = tate_ambient(p, 0)
    v, trunc, ds, combos = _block_params(p, kind, k)
    for e, b in combos:
        for d in ds:
            j = d * p ** v
            base = (2 * p * p - 1) * b + (2 * p - 1) * e - 2 * j
            for c in _in_window(base, 2 * p * p - 2, trunc, lo, hi):
                m = _pack(p, e, b, j, c)
                pre = _pack(p, e, b, j * p * p, c + j)
                if not page_member(p, pre) or r_endo(p, pre) != m:
                    return False, alg.mono_str(m)
    return True, ""


# -- presentations ---------------------------------------------------------


@dataclass(frozen=True)
class PvGenerator:
    label: str
    degree: int
    free: bool = True
    height: int = 0          # truncated height when not free
    row: int = 1


@dataclass(frozen=True)
class PvModule:
    """Presentation over the polynomial algebra on the periodicity class."""

    p: int
    name: str
    generators: tuple[PvGenerator, ...]
    conditional: bool = False

    @property
    def v2_degree(self) -> int:
        return 2 * self.p * self.p - 2

    @property
    def rank(self) -> int:
        return len(self.generators)

    @property
    def euler(self) -> int:
        even = sum(1 for g in self.generators if g.degree % 2 == 0)
        return 2 * even - len(self.generators)

    def series(self, lo: int, hi: int) -> PoincareSeries:
        degrees = []
        for g in self.generators:
            d = g.degree
            reps = 0
            while d <= hi and (g.free or reps < g.height):
                if d >= lo:
                    degrees.append(d)
                d += self.v2_degree
                reps += 1
        return ps_from_degree_list(degrees, lo, hi)

    def export(self) -> dict:
        return {
            "p": self.p,
            "name": self.name,
            "v2_degree": self.v2_degree,
            "rank": self.rank,
            "euler": self.euler,
            "conditional": self.conditional,
            "generators": [
                {"label": g.label, "degree": g.degree,
                 "freeness": "free" if g.free else f"truncated:{g.height}",
                 "row": g.row}
                for g in self.generators
            ],
        }


def _row23(p: int, top: str) -> list[PvGenerator]:
    """Rows 2 and 3; top names the degree 2p^2-1 class of row 3."""
    L, E = 2 * p * p - 1, 2 * p - 1
    out = []
    for d in _d2_range(p):
        out.append(PvGenerator(f"t^{d}*v2", 2 * p * p - 2 - 2 * d, row=2))
        out.append(PvGenerator(f"dlogv1*t^{d}*v2", L - 2 * d, row=2))
    for d in range(1, p):
        out.append(PvGenerator(f"t^{d * p}*{top}", L - 2 * d * p, row=3))
        out.append(PvGenerator(f"eps1b*t^{d * p}*{top}",
                               L + E - 2 * d * p, row=3))
    return out


def tc_presentation_module(p: int) -> PvModule:
    """The three-row presentation alone, without cross-checks."""
    L, E = 2 * p * p - 1, 2 * p - 1
    row1 = [PvGenerator("1", 0), PvGenerator("partial", -1),
            PvGenerator("eps1b", E), PvGenerator("lambda2", L),
            PvGenerator("partial*eps1b", E - 1),
            PvGenerator("partial*lambda2", L - 1),
            PvGenerator("eps1b*lambda2", E + L),
            PvGenerator("partial*eps1b*lambda2", E + L - 1)]
    return PvModule(p, "tc", tuple(row1 + _row23(p, "lambda2")))


def tc_presentation(p: int) -> tuple[PvModule, list[str]]:
    """Three-row presentation of the cyclic homology answer, cross-checked
    degreewise against the fiber sequence of R - 1."""
    mod = tc_presentation_module(p)
    lo, hi = 2 * p - 1, 4 * p * p
    ker, cok, _ = r_fixed_points(p, lo, hi + 1)
    series = mod.series(lo, hi)
    problems = []
    for d in range(lo, hi + 1):
        want = ker.get(d) + cok.get(d + 1)
        if series.get(d) != want:
            problems.append(
                f"degree {d}: presentation {series.get(d)}, fiber sequence "
                f"{want}")
    return mod, problems


def k_presentation(p: int) -> tuple[PvModule, list[str]]:
    """The algebraic K presentation: rank 2p^2-2p+8, zero parity count, and
    degreewise complement of a desuspended exterior algebra inside tc."""
    L, E = 2 * p * p - 1, 2 * p - 1
    row1 = [PvGenerator("1", 0), PvGenerator("partial*lambda2", L - 1),
            PvGenerator("lambda2", L), PvGenerator("partial*v2", L - 2),
            PvGenerator("eps1b", E), PvGenerator("eps1b*partial*lambda2", E + L - 1),
            PvGenerator("eps1b*lambda2", E + L),
            PvGenerator("eps1b*partial*v2", E + L - 2)]
    mod = PvModule(p, "k", tuple(row1 + _row23(p, "lambda2")))
    problems = []
    if mod.rank != 2 * p * p - 2 * p + 8:
        problems.append(f"rank {mod.rank} != {2 * p * p - 2 * p + 8}")
    if mod.euler != 0:
        problems.append(f"euler characteristic {mod.euler} != 0")
    tc_mod = tc_presentation_module(p)
    lo, hi = -2, 4 * p * p
    lhs = tc_mod.series(lo, hi)
    rhs = mod.series(lo, hi)
    for d in range(lo, hi + 1):
        extra = 1 if d in (-1, 2 * p - 2) else 0
        if lhs.get(d) != rhs.get(d) + extra:
            problems.append(
                f"degree {d}: tc {lhs.get(d)} != k {rhs.get(d)} + "
                f"desuspension {extra}")
    return mod, problems


def k_lp_presentation(p: int) -> PvModule:
    """The conditional periodic presentation, marked as such."""
    L, E = 2 * p * p - 1, 2 * p - 1
    row1 = [PvGenerator("1", 0), PvGenerator("partial*lambda2", L - 1),
            PvGenerator("dlogv1", 1), PvGenerator("partial*v2", L - 2),
            PvGenerator("eps1b", E),
            PvGenerator("eps1b*partial*lambda2", E + L - 1),
            PvGenerator("eps1b*dlogv1", E + 1),
            PvGenerator("eps1b*partial*v2", E + L - 2)]
    return PvModule(p, "k-lp-conditional",
                    tuple(row1 + _row23(p, "v2*dlogv1")), conditional=True)


def k_Lp_checks(p: int) -> tuple[bool, list[str]]:
    """Localized comparison of the conditional periodic presentation with
    the connective one: equal generator counts in every degree class mod
    the periodicity, equal rank, zero parity count."""
    step = 2 * p * p - 2
    cond = k_lp_presentation(p)
    kmod, _ = k_presentation(p)
    problems: list[str] = []
    for mod in (cond, kmod):
        classes: dict[int, int] = {}
        for g in mod.generators:
            classes[g.degree % step] = classes.get(g.degree % step, 0) + 1
        if mod is cond:
            cond_classes = classes
        else:
            if classes != cond_classes:
                diffs = {r: (cond_classes.get(r, 0), classes.get(r, 0))
                         for r in set(classes) | set(cond_classes)
                         if classes.get(r, 0) != cond_classes.get(r, 0)}
                problems.append(f"localized class counts differ: {diffs}")
    if cond.rank != 2 * p * p - 2 * p + 8:
        problems.append(f"conditional rank {cond.rank}")
    if cond.euler != 0:
        problems.append(f"conditional euler {cond.euler}")
    notes = ["low-degree input: the K theory of the residue field is the "
             "exterior algebra on eps1b", "conditional presentation: "
             "depends on a degree 1 class with v2 * dlogv1 = lambda2"]
    return not problems, problems or notes
