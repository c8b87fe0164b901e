"""Endgame bookkeeping: the restriction endomorphism on the circle page,
the block decomposition it induces, kernel and cokernel of R - 1, and the
final free-module presentations with their rank and parity counts.

The circle Tate page is circle.s1_einf's, one summand per block.  Its
monomials are classified by the valuation of the pure t exponent j:

    j = 0                    the A block  E(eps1b, lambda2) (x) P(tmu2)
    p does not divide j      residue classes t^(-i) P(t^(p^2)), c = 0
    v_p(j) = 2k-2, e = 0     tower block B at height k (tmu2 power < rho(2k-3))
    v_p(j) = 2k-1, b = 1     tower block C at height k (tmu2 power < rho(2k-2))

and in the tower blocks by the leading digit j / p^v: the digits of
B_k and C_k, or the remainder D.  The induced endomorphism sends t^j to
t^(j/p^2) and lowers the tmu2 power by j/p^2; classes whose image is off
the page die.  R keeps the total degree, and so does the tower preimage
(e, b, j p^2, c + j) of a class, so page membership is looked up among
the classes of the window itself.
"""
from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Callable, NamedTuple

from .graded import Monomial, PoincareSeries, ps_from_degree_list
from .numerics import vp
from .specseq import VerificationError
from .thh.circle import s1_einf
from .thh.tate import IE1, IL, IM, IT, Summand, tate_ambient


def in_window(base: int, step: int, trunc: int | None, lo: int, hi: int
              ) -> range:
    """The tmu2 powers 0 <= c < trunc with base + step * c in [lo, hi]."""
    top = (hi - base) // step + 1
    return range(max(0, -((base - lo) // step)),
                 top if trunc is None else min(trunc, top))


def _coords(m: Monomial) -> tuple[int, int, int, int]:
    """(eps1b, lambda2, pure t exponent, tmu2 exponent)."""
    return m[IE1], m[IL], m[IT] - m[IM], m[IM]


def _pack(e: int, b: int, j: int, c: int) -> Monomial:
    return (0, j + c, b, c, 0, 0, e)


def _digits(p: int, kind: str) -> list[int]:
    """The leading digits j / p^v of the classes of the tower block B_k or
    C_k; the other digits of valuation v make the remainder D."""
    return [d for d in range(1, p * p - p if kind == "B" else p) if d % p]


def classify(p: int, m: Monomial) -> tuple[str, int]:
    """Block of a circle-page monomial: A, B_k, C_k, or the remainder D."""
    e, b, j, c = _coords(m)
    if j == 0:
        return ("A", 0)
    if j % p:
        return ("D", 0)
    v = vp(p, j)
    kind = "C" if v % 2 else "B"
    return (kind if j // p ** v in _digits(p, kind) else "D", v // 2 + 1)


OnPage = Callable[[Monomial], bool]


def r_endo(p: int, m: Monomial, on_page: OnPage) -> Monomial | None:
    """The restriction endomorphism on page monomials; None means zero.
    on_page answers page membership in the total degree of m."""
    e, b, j, c = _coords(m)
    if j == 0:
        return m
    if j % (p * p):
        return None
    jt = j // (p * p)
    target = _pack(e, b, jt, c - jt)
    return target if on_page(target) else None


def _onto(p: int, m: Monomial, on_page: OnPage) -> bool:
    """Whether the tower preimage (e, b, j p^2, c + j) of m is on the page
    and R sends it back to m."""
    e, b, j, c = _coords(m)
    pre = _pack(e, b, j * p * p, c + j)
    return on_page(pre) and r_endo(p, pre, on_page) == m


def tf_decompose(p: int, lo: int, hi: int, kmax: int
                 ) -> dict[Monomial, tuple[str, int]]:
    """The in-window monomials of the circle page with tower blocks up to
    kmax, each with its block; no monomial may come twice."""
    if lo <= 2 * p - 2:
        raise ValueError("the block decomposition needs degrees > 2p-2")
    page = s1_einf(p, kmax, "tate")
    blocks: dict[Monomial, tuple[str, int]] = {}
    for _, m in page.iter_region(page.total_region(lo, hi)):
        if m in blocks:
            raise ValueError(
                f"monomial {page.algebra.mono_str(m)} doubly classified")
        blocks[m] = classify(p, m)
    return blocks


# the tower heights whose blocks rh_map_check follows
_RH_KMAX = 5


def rh_map_check(p: int, lo: int, hi: int) -> tuple[bool, list[str]]:
    """Behavior of the restriction endomorphism, clause by clause: A,
    where r_endo is the identity, has the in-window classes of the closed
    form E(eps1b, lambda2) (x) P(tmu2); the height k+1 tower blocks map
    onto the height k blocks with the same leading exponent, for k up to
    _RH_KMAX; everything else dies."""
    if lo <= 2 * p - 2:
        raise ValueError("restriction map bookkeeping needs degrees > 2p-2")
    alg = tate_ambient(p, 0)
    problems: list[str] = []
    stats = {"onto": 0, "zero": 0}
    a_degrees = []
    # the preimages of the height _RH_KMAX classes are in the next blocks
    blocks = tf_decompose(p, lo, hi, _RH_KMAX + 1)
    on_page = blocks.__contains__
    for m, (kind, k) in blocks.items():
        if k > _RH_KMAX:
            continue
        if kind == "A":
            a_degrees.append(alg.total(m))
            continue
        r = r_endo(p, m, on_page)
        if kind == "D" or k == 2:
            if r is not None:
                problems.append(
                    f"{kind} class {alg.mono_str(m)} maps to "
                    f"{alg.mono_str(r)}, expected zero")
            stats["zero"] += 1
        elif r is not None and blocks[r] != (kind, k - 1):
            problems.append(
                f"{kind}_{k} class {alg.mono_str(m)} maps outside "
                f"{kind}_{k - 1}")
        # surjectivity onto every in-window block element
        if kind != "D":
            if _onto(p, m, on_page):
                stats["onto"] += 1
            else:
                problems.append(
                    f"{kind}_{k} class {alg.mono_str(m)} has no tower "
                    f"preimage")
    want = PvModule(p, "A", _exterior(generator_table(p)[0])).series(lo, hi)
    problems += [f"degree {d}: A block {n} on the page, {want.get(d)} in "
                 f"closed form"
                 for d, n in ps_from_degree_list(a_degrees, lo, hi).items()
                 if n != want.get(d)]
    detail = [f"A fixed: {len(a_degrees)}, killed: {stats['zero']}, "
              f"onto targets: {stats['onto']}, blocks up to {_RH_KMAX}"]
    return not problems, problems or detail


# -- limits of the towers and the fiber sequence --------------------------


def _summand(p: int, kind: str, k: int) -> Summand:
    """The summand of the circle page, picked by its predicate, that holds
    the A block (any k >= 2) or the tower block B_k or C_k with its D
    classes."""
    pred = ("zero",) if kind == "A" else \
        ("vp_eq", 2 * k - 2 if kind == "B" else 2 * k - 1)
    sm, = (s for s in s1_einf(p, k, "tate").summands if s.pred == pred)
    return sm


def _block_classes(p: int, kind: str, k: int, lo: int, hi: int
                   ) -> tuple[list[tuple[int, Monomial]], bool]:
    """The in-window classes of the A block or of B_k or C_k, each with its
    total degree: the summand's (eps1b, lambda2) rows and tmu2 bound, at
    the leading digits that classify gives the block.  Also whether the
    bound clips a row: drops a class of it that lies in the window."""
    L, E = 2 * p * p - 1, 2 * p - 1
    step = 2 * p * p - 2
    sm = _summand(p, kind, k)
    js = [0] if kind == "A" else [d * p ** sm.pred[1]
                                  for d in _digits(p, kind)]
    out, clipped = [], False
    for b in sm.lam:
        for _, _, e in sm.module:
            for j in js:
                base = L * b + E * e - 2 * j
                cs = in_window(base, step, sm.c_hi, lo, hi)
                out += [(base + step * c, _pack(e, b, j, c)) for c in cs]
                clipped = clipped or \
                    len(in_window(base, step, None, lo, hi)) > len(cs)
    return out, clipped


def _series(classes: list[tuple[int, Monomial]], lo: int, hi: int
            ) -> PoincareSeries:
    return ps_from_degree_list((d for d, _ in classes), lo, hi)


def _not_onto(p: int, kind: str, k: int,
              classes: list[tuple[int, Monomial]]) -> Monomial | None:
    """The first class of B_k or C_k with no tower preimage in the height
    k+1 block, or None."""
    page = s1_einf(p, k + 1, "tate")
    cur, nxt = _summand(p, kind, k), _summand(p, kind, k + 1)

    def on_page(m: Monomial) -> bool:
        return page.in_summand(cur, m) or page.in_summand(nxt, m)

    for _, m in classes:
        if not _onto(p, m, on_page):
            return m
    return None


def r_fixed_points(p: int, lo: int, hi: int
                   ) -> tuple[PoincareSeries, PoincareSeries, list[str]]:
    """Kernel and cokernel series of R - 1 on the window, computed from the
    circle page: ker = A + lim B + lim C and coker = A + lim^1, where lim^1
    vanishes since every tower step is onto; with the stabilization and
    surjectivity evidence for the tower limits."""
    if lo <= 2 * p - 2:
        raise ValueError("fixed point bookkeeping needs degrees > 2p-2")
    alg = tate_ambient(p, 0)
    notes: list[str] = []
    a_block, _ = _block_classes(p, "A", 2, lo, hi)
    ker = list(a_block)
    for kind in ("B", "C"):
        # walks[i] is the block at height i + 2.  Every row of a block
        # starts below the window, and the top of each row rises from one
        # height to the next: from the first height whose tmu2 bound clips
        # no row in the window, each block holds the limit's classes there
        walks, clipped = [], True
        while clipped:
            if len(walks) > 10:
                raise VerificationError(f"{kind} blocks do not stabilize")
            classes, clipped = _block_classes(p, kind, len(walks) + 2, lo, hi)
            walks.append(classes)
        k_stable = len(walks) + 1
        notes.append(f"{kind} blocks stabilize at height {k_stable}")
        ker += walks[-1]
        walks.append(_block_classes(p, kind, k_stable + 1, lo, hi)[0])
        for kk in range(2, k_stable + 2):
            bad = _not_onto(p, kind, kk, walks[kk - 2])
            if bad is not None:
                raise VerificationError(
                    f"tower step {kind}_{kk + 1} -> {kind}_{kk} not onto: "
                    f"{alg.mono_str(bad)}")
        notes.append(f"{kind} tower steps onto up to height {k_stable + 1}")
    return _series(ker, lo, hi), _series(a_block, lo, hi), notes


def fixed_point_check(p: int, lo: int, hi: int) -> tuple[bool, list[str]]:
    """Kernel and cokernel of R - 1 computed from the page against their
    closed form, free over the periodicity class: ker = E(A classes) plus
    rows 2 and 3, and coker = E(A classes)."""
    ker, cok, notes = r_fixed_points(p, lo, hi)
    a_classes, rows = generator_table(p)
    a_gens = _exterior(a_classes)
    problems = []
    for name, got, gens in (("ker", ker, a_gens + rows),
                            ("coker", cok, a_gens)):
        want = PvModule(p, name, gens).series(lo, hi)
        problems += [f"degree {d}: {name}(R - 1) {n} on the page, "
                     f"{want.get(d)} in closed form"
                     for d, n in got.items() if n != want.get(d)]
    return not problems, problems or notes


# -- the generator table and the presentations ----------------------------


class PvGenerator(NamedTuple):
    label: str
    degree: int
    row: int = 1


Class = tuple[str, int]     # (label, degree)


def generator_table(p: int, top: str = "lambda2"
                    ) -> tuple[tuple[Class, ...], tuple[PvGenerator, ...]]:
    """The endgame's generators: the exterior classes of the A block, and
    rows 2 and 3, the limits of the B and C towers at their leading digits.
    top names the degree 2p^2-1 class of row 3."""
    L, E = 2 * p * p - 1, 2 * p - 1
    rows = []
    for d in _digits(p, "B"):
        rows += [PvGenerator(f"t^{d}*v2", L - 1 - 2 * d, 2),
                 PvGenerator(f"dlogv1*t^{d}*v2", L - 2 * d, 2)]
    for d in _digits(p, "C"):
        rows += [PvGenerator(f"t^{d * p}*{top}", L - 2 * d * p, 3),
                 PvGenerator(f"eps1b*t^{d * p}*{top}", L + E - 2 * d * p, 3)]
    return (("eps1b", E), ("lambda2", L)), tuple(rows)


def _exterior(classes: tuple[Class, ...]) -> tuple[PvGenerator, ...]:
    """Row 1 generators of E(classes): the products of the subsets, by size
    and then in combinations order; the empty product is 1."""
    return tuple(PvGenerator("*".join(n for n, _ in s) or "1",
                             sum(d for _, d in s))
                 for r in range(len(classes) + 1)
                 for s in combinations(classes, r))


class PvModule(NamedTuple):
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
        step = self.v2_degree
        return ps_from_degree_list(
            (g.degree + step * c for g in self.generators
             for c in in_window(g.degree, step, None, lo, hi)), lo, hi)

    def export(self) -> dict:
        return {
            "p": self.p,
            "name": self.name,
            "v2_degree": self.v2_degree,
            "rank": self.rank,
            "euler": self.euler,
            "conditional": self.conditional,
            "generators": [
                {"label": g.label, "degree": g.degree, "freeness": "free",
                 "row": g.row}
                for g in self.generators
            ],
        }


def tc_presentation_module(p: int) -> PvModule:
    """The three-row presentation alone, without cross-checks: row 1 is
    E(partial, A classes), rows 2 and 3 the table's."""
    a_classes, rows = generator_table(p)
    return PvModule(p, "tc", _exterior((("partial", -1),) + a_classes) + rows)


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


def _k_row1(p: int, eps1b: Class, top: Class) -> tuple[PvGenerator, ...]:
    """Row 1 of a K presentation, E(eps1b) (x) {1, partial*lambda2, top,
    partial*v2}: top is lambda2, or dlogv1 in the conditional one.  The
    partial classes are K's own statement, which thm-8.10 compares with
    tc's row 1."""
    L = 2 * p * p - 1
    rest = (("1", 0), ("partial*lambda2", L - 1), top, ("partial*v2", L - 2))
    return tuple(PvGenerator("*".join(n for n in (e.label, x) if n != "1")
                             or "1", e.degree + d)
                 for e in _exterior((eps1b,)) for x, d in rest)


def k_presentation_module(p: int) -> PvModule:
    """K's presentation alone, without cross-checks: row 1 with top lambda2,
    rows 2 and 3 the table's."""
    (eps1b, lambda2), rows = generator_table(p)
    return PvModule(p, "k", _k_row1(p, eps1b, lambda2) + rows)


def k_presentation(p: int) -> tuple[PvModule, list[str]]:
    """The algebraic K presentation: rank 2p^2-2p+8, zero parity count, and
    degreewise complement of a desuspended exterior algebra inside tc."""
    mod = k_presentation_module(p)
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
    (eps1b, _), rows = generator_table(p, "v2*dlogv1")
    return PvModule(p, "k-lp-conditional",
                    _k_row1(p, eps1b, ("dlogv1", 1)) + rows, conditional=True)


def k_Lp_checks(p: int) -> tuple[bool, list[str]]:
    """Localized comparison of the conditional periodic presentation with
    the connective one: equal generator counts in every degree class mod
    the periodicity, equal rank, zero parity count."""
    step = 2 * p * p - 2
    cond = k_lp_presentation(p)
    kmod = k_presentation_module(p)
    want, got = (Counter(g.degree % step for g in mod.generators)
                 for mod in (cond, kmod))
    problems: list[str] = []
    if got != want:
        diffs = {r: (want[r], got[r]) for r in sorted(want | got)
                 if want[r] != got[r]}
        problems.append(f"localized class counts differ: {diffs}")
    if cond.rank != 2 * p * p - 2 * p + 8:
        problems.append(f"conditional rank {cond.rank}")
    if cond.euler != 0:
        problems.append(f"conditional euler {cond.euler}")
    notes = ["low-degree input: the K theory of the residue field is the "
             "exterior algebra on eps1b", "conditional presentation: "
             "depends on a degree 1 class with v2 * dlogv1 = lambda2"]
    return not problems, problems or notes
