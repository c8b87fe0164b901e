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

from typing import Callable, NamedTuple

from .graded import Monomial, PoincareSeries, ps_from_degree_list
from .numerics import vp
from .specseq import VerificationError
from .thh.circle import s1_einf
from .thh.tate import IE1, IL, IM, IT, Summand, in_window, tate_ambient


def _coords(m: Monomial) -> tuple[int, int, int, int]:
    """(eps1b, lambda2, pure t exponent, tmu2 exponent)."""
    return m[IE1], m[IL], m[IT] - m[IM], m[IM]


def _pack(p: int, e: int, b: int, j: int, c: int) -> Monomial:
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
    target = _pack(p, e, b, jt, c - jt)
    return target if on_page(target) else None


def _onto(p: int, m: Monomial, on_page: OnPage) -> bool:
    """Whether the tower preimage (e, b, j p^2, c + j) of m is on the page
    and R sends it back to m."""
    e, b, j, c = _coords(m)
    pre = _pack(p, e, b, j * p * p, c + j)
    return on_page(pre) and r_endo(p, pre, on_page) == m


def tf_decompose(p: int, lo: int, hi: int, kmax: int = 5
                 ) -> dict[Monomial, tuple[str, int]]:
    """The in-window monomials of the circle page with tower blocks up to
    kmax, each with its block; no monomial may come twice."""
    if lo <= 2 * p - 2:
        raise ValueError("the block decomposition needs degrees > 2p-2")
    page = s1_einf(p, kmax, "tate")
    blocks: dict[Monomial, tuple[str, int]] = {}
    for total in range(lo, hi + 1):
        for m in page.monomials_at_total(total):
            if m in blocks:
                raise ValueError(
                    f"monomial {page.algebra.mono_str(m)} doubly classified")
            blocks[m] = classify(p, m)
    return blocks


def rh_map_check(p: int, lo: int, hi: int, kmax: int = 5
                 ) -> tuple[bool, list[str]]:
    """Behavior of the restriction endomorphism, clause by clause: A,
    where r_endo is the identity, has the in-window classes of the closed
    form E(eps1b, lambda2) (x) P(tmu2); the height k+1 tower blocks map
    onto the height k blocks with the same leading exponent; everything
    else dies."""
    if lo <= 2 * p - 2:
        raise ValueError("restriction map bookkeeping needs degrees > 2p-2")
    alg = tate_ambient(p, 0)
    problems: list[str] = []
    stats = {"onto": 0, "zero": 0}
    a_degrees = []
    # the preimages of the height kmax classes are in the next blocks
    blocks = tf_decompose(p, lo, hi, kmax + 1)
    on_page = blocks.__contains__
    for m, (kind, k) in blocks.items():
        if k > kmax:
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
    a_gens = tuple(PvGenerator(*g) for g in _ker_generator_degrees(p)[:4])
    want = PvModule(p, "A", a_gens).series(lo, hi)
    problems += [f"degree {d}: A block {n} on the page, {want.get(d)} in "
                 f"closed form"
                 for d, n in ps_from_degree_list(a_degrees, lo, hi).items()
                 if n != want.get(d)]
    detail = [f"A fixed: {len(a_degrees)}, killed: {stats['zero']}, "
              f"onto targets: {stats['onto']}, blocks up to {kmax}"]
    return not problems, problems or detail


# -- limits of the towers and the fiber sequence --------------------------


def _ker_generator_degrees(p: int) -> list[tuple[str, int]]:
    L, E = 2 * p * p - 1, 2 * p - 1
    gens = [("1", 0), ("eps1b", E), ("lambda2", L), ("eps1b*lambda2", E + L)]
    for d in _digits(p, "B"):
        gens.append((f"t^{d}", -2 * d))
        gens.append((f"t^{d}*lambda2", -2 * d + L))
    for d in range(1, p):
        gens.append((f"t^{d * p}*lambda2", -2 * d * p + L))
        gens.append((f"eps1b*t^{d * p}*lambda2", -2 * d * p + L + E))
    return gens


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
                out += [(base + step * c, _pack(p, e, b, j, c)) for c in cs]
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
    closed form: the A generators and the tower limits, free over the
    periodicity class."""
    ker, cok, notes = r_fixed_points(p, lo, hi)
    gens = [PvGenerator(*g) for g in _ker_generator_degrees(p)]
    problems = []
    for name, got, rows in (("ker", ker, gens), ("coker", cok, gens[:4])):
        want = PvModule(p, name, tuple(rows)).series(lo, hi)
        problems += [f"degree {d}: {name}(R - 1) {n} on the page, "
                     f"{want.get(d)} in closed form"
                     for d, n in got.items() if n != want.get(d)]
    return not problems, problems or notes


# -- presentations ---------------------------------------------------------


class PvGenerator(NamedTuple):
    label: str
    degree: int
    free: bool = True
    height: int = 0          # truncated height when not free
    row: int = 1


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
    for d in _digits(p, "B"):
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
