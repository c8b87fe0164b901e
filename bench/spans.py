"""Layer spans for one fpss child process, installed from outside the package.

`install` replaces each traced function at every binding its callers look
up: class attributes for methods, and every module global of the `fpss`
package that names the function (so a `from .x import f` copy in another
module is wrapped too).  Wrappers return the wrapped value unchanged.

Spans aggregate into a call tree kept in memory: one node per (parent node,
span name) with its calls, inclusive seconds, self seconds (inclusive minus
the time covered by child spans) and exact counts.  `Tracer.nodes` flattens
the tree, with parent links, for the child to write when it exits.
"""
from __future__ import annotations

import re
import sys
import time

clock = time.perf_counter


class Node:
    __slots__ = ("name", "children", "calls", "busy", "self_s", "counts")

    def __init__(self, name: str):
        self.name = name
        self.children: dict[str, Node] = {}
        self.calls = 0
        self.busy = 0.0
        self.self_s = 0.0
        self.counts: dict[str, int] = {}


def _bump(counts: dict, key: str, n: int) -> None:
    counts[key] = counts.get(key, 0) + n


class Tracer:
    def __init__(self) -> None:
        self.root = Node("root")
        # one frame per open span: [node, seconds covered by child spans]
        self.stack: list[list] = [[self.root, 0.0]]
        # inclusive seconds of each verify_turn call, keyed by its rule
        self.stages: dict[str, float] = {}

    def _enter(self, name: str) -> list:
        parent = self.stack[-1][0]
        node = parent.children.get(name)
        if node is None:
            node = parent.children[name] = Node(name)
        frame = [node, 0.0]
        self.stack.append(frame)
        return frame

    def _leave(self, frame: list, dur: float) -> None:
        self.stack.pop()
        node = frame[0]
        node.busy += dur
        node.self_s += dur - frame[1]
        self.stack[-1][1] += dur

    def wrap(self, name: str, fn, count=None, probe=None):
        """Span around fn.  probe(args) runs before the call;
        count(counts, args, result, probed) records exact counts after it."""
        enter, leave = self._enter, self._leave

        def traced(*args, **kwargs):
            frame = enter(name)
            probed = probe(args) if probe is not None else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame, clock() - t0)
            frame[0].calls += 1
            if count is not None:
                count(frame[0].counts, args, result, probed)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn):
        """Span around a generator function: busy time is the time spent
        inside the generator body; `monomials` counts the items it yields."""
        enter, leave = self._enter, self._leave

        def resume(inner):
            frame = enter(name)
            frame[0].calls += 1
            while True:
                t0 = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    leave(frame, clock() - t0)
                    return
                except BaseException:
                    leave(frame, clock() - t0)
                    raise
                leave(frame, clock() - t0)
                _bump(frame[0].counts, "monomials", 1)
                yield item
                frame = enter(name)

        def traced(*args, **kwargs):
            return resume(iter(fn(*args, **kwargs)))

        traced.__wrapped__ = fn
        return traced

    def nodes(self) -> list[dict]:
        """The call tree in pre-order; `parent` is an index into the list."""
        out: list[dict] = []
        todo = [(self.root, -1)]
        while todo:
            node, parent = todo.pop()
            out.append({"name": node.name, "parent": parent,
                        "calls": node.calls, "busy": node.busy,
                        "self": node.self_s, "counts": node.counts})
            me = len(out) - 1
            todo.extend((c, me) for c in reversed(list(node.children.values())))
        return out


def stage_name(rule_name: str) -> str:
    return "specseq.stage." + re.sub(r"[^A-Za-z0-9_.-]", "-", rule_name)


def _rebind(fn, wrapper) -> None:
    """Point every fpss module global that names fn at wrapper."""
    found = False
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "fpss" or mod_name.startswith("fpss.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, key, wrapper)
                found = True
    if not found:
        raise LookupError(f"no fpss module binds {fn!r}")


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every fpss layer.  fpss.cli must already
    be imported, so that every fpss module and its bindings exist.  A
    function the package no longer has is skipped, and its metrics read 0."""
    from fpss import comodule, report, specseq, tc
    from fpss.fp_linalg import Echelon
    from fpss.graded import Algebra
    from fpss.thh import bokstedt, circle, hochschild, tate, v1

    def present(owner, attr) -> bool:
        if hasattr(owner, attr):
            return True
        print(f"trace: {owner.__name__}.{attr} not found; not traced",
              file=sys.stderr)
        return False

    def method(cls, attr, name, **kw):
        if present(cls, attr):
            setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), **kw))

    def function(mod, attr, name, **kw):
        if present(mod, attr):
            fn = getattr(mod, attr)
            _rebind(fn, tracer.wrap(name, fn, **kw))

    def monomials(counts, args, result, probed):
        _bump(counts, "monomials", len(result))

    def cache_probe(args):
        page, s, t = args[0], args[1], args[2]
        return (s, t) in getattr(page, "_cache", ())

    def hits(counts, args, result, probed):
        _bump(counts, "hits", 1 if probed else 0)

    def terms(counts, args, result, probed):
        _bump(counts, "terms", len(result))

    def inserts(counts, args, result, probed):
        _bump(counts, "nnz_in", len(args[1]))
        _bump(counts, "pivots", 0 if result is None else 1)

    method(Algebra, "basis_in_bidegree", "graded.basis_in_bidegree",
           count=monomials)
    method(Algebra, "mono_mul", "graded.mono_mul")
    method(bokstedt.BokstedtPage, "basis_at", "thh.bokstedt.basis_at",
           probe=cache_probe, count=hits)
    method(tate.TateForm, "basis_at", "thh.tate.basis_at",
           probe=cache_probe, count=hits)
    if present(tate.TateForm, "iter_region"):
        tate.TateForm.iter_region = tracer.wrap_generator(
            "thh.tate.iter_region", tate.TateForm.iter_region)
    function(tate, "tate_instance", "thh.tate.instance")
    function(tate, "hofix_instance", "thh.tate.instance")

    turn = getattr(specseq, "verify_turn", None)

    def verify_turn(page, rule, after, region, *args, **kwargs):
        t0 = clock()
        try:
            return turn(page, rule, after, region, *args, **kwargs)
        finally:
            key = stage_name(rule.name)
            tracer.stages[key] = tracer.stages.get(key, 0.0) + clock() - t0

    def bidegrees(counts, args, result, probed):
        _bump(counts, "bidegrees", result.bidegrees_checked)

    if present(specseq, "verify_turn"):
        _rebind(turn, tracer.wrap("specseq.verify_turn", verify_turn,
                                  count=bidegrees))
    method(specseq.DerivationRule, "apply", "specseq.rule_apply", count=terms)
    method(specseq.FamilyRule, "apply", "specseq.rule_apply", count=terms)
    function(specseq, "rule_on_element", "specseq.dd_check")
    method(Echelon, "insert", "fp_linalg.echelon_insert", count=inserts)
    function(hochschild, "hh_bruteforce", "thh.hochschild.hh_bruteforce")
    function(hochschild, "hochschild_boundary", "thh.hochschild.boundary")
    for name in ("r_fixed_points", "tc_presentation", "k_presentation",
                 "rh_map_check"):
        function(tc, name, f"tc.{name}")
    for name in ("s1_limits", "s1_hofix_limits", "lemma_78_check",
                 "lemma_79_check"):
        function(circle, name, f"thh.circle.{name}")
    function(comodule, "v1_smash_thh_table", "comodule.v1_smash_thh_table")
    function(comodule, "is_primitive", "comodule.is_primitive")
    function(v1, "poincare_identity_check", "thh.v1.poincare_identity_check")
    method(report.Report, "to_text", "report.format")
    method(report.Report, "to_json_dict", "report.format")
    function(specseq, "dump_page", "report.format")
