"""Per-layer tracing of gtbasis from outside the package.

``Tracer.install`` replaces the public functions of each layer with
wrappers, in every gtbasis module that holds a binding to them (the
``from ... import`` copies in ``raising``, ``monomials`` and ``cli``
included), and ``Tracer.uninstall`` puts every original back.

Functions called a moderate number of times record a span (name, start,
end, parent id) kept in memory; self time is a span's duration minus that
of its direct children.  Hot functions (scalar arithmetic, the generator
actions, ``GTPattern.replace``) only bump counters, so the trace stays
small; scalar operations are counted where another layer calls into
``scalars``, not for the calls ``scalars`` makes to itself.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

import numpy.linalg

from gtbasis import cli, monomials, operators, patterns, raising
from gtbasis.operators import OperatorMatrix
from gtbasis.patterns import GTPattern
from gtbasis.scalars import RadicalScalar

# Layer metric -> the end-to-end metric and workload it should move.
LAYER_MAP = {
    "scalars.add_calls": "wall_s/largest_s on relations; rank time on monomials",
    "scalars.sub_calls": "wall_s/largest_s on relations; rank time on monomials",
    "scalars.neg_calls": "wall_s/largest_s on relations; rank time on monomials",
    "scalars.mul_calls": "wall_s/largest_s on relations; rank time on monomials",
    "scalars.zero_operand_share": "wall_s/largest_s on relations; rank time on monomials",
    "scalars.invert_calls": "wall_s on monomials and alternate",
    "scalars.invert_s": "wall_s on monomials and alternate",
    "scalars.max_terms": "wall_s on monomials and alternate",
    "scalars.max_num_bits": "wall_s on monomials and alternate",
    "patterns.enumerate_calls": "wall_s on monomials, alternate; a little on relations",
    "patterns.enumerate_s": "wall_s on monomials, alternate; a little on relations",
    "patterns.pattern_inits": "wall_s on monomials, alternate; a little on relations",
    "patterns.replace_calls": "wall_s on monomials, alternate; a little on relations",
    "patterns.replace_s": "wall_s on monomials, alternate; a little on relations",
    "patterns.replace_valid_share": "wall_s on monomials, alternate; a little on relations",
    "operators.act_calls": "wall_s on relations, and on monomials, alternate via basis_matrix",
    "operators.act_s": "wall_s on relations, and on monomials, alternate via basis_matrix",
    "operators.operator_matrix_calls": "wall_s/cpu_s/largest_s on relations; none elsewhere",
    "operators.operator_matrix_s": "wall_s/cpu_s/largest_s on relations; none elsewhere",
    "operators.general_element_calls": "wall_s/cpu_s/largest_s on relations; none elsewhere",
    "operators.general_element_s": "wall_s/cpu_s/largest_s on relations; none elsewhere",
    "operators.commutator_calls": "wall_s/cpu_s/largest_s on relations; none elsewhere",
    "operators.commutator_s": "wall_s/cpu_s/largest_s on relations; none elsewhere",
    "operators.relations_self_s": "wall_s/cpu_s/largest_s on relations; none elsewhere",
    "operators.matrix_density": "wall_s/largest_s/peak_rss_mib on relations",
    "raising.apply_word_calls": "wall_s on monomials, alternate; certificate part of relations",
    "raising.apply_word_s": "wall_s on monomials, alternate; certificate part of relations",
    "raising.apply_generator_calls": "wall_s on monomials, alternate; certificate part of relations",
    "raising.verify_raise_calls": "wall_s on monomials, alternate; certificate part of relations",
    "raising.verify_raise_s": "wall_s on monomials, alternate; certificate part of relations",
    "raising.certificate_self_s": "wall_s on monomials, alternate; certificate part of relations",
    "monomials.family_s": "wall_s/largest_s on monomials",
    "monomials.basis_matrix_s": "wall_s/largest_s/peak_rss_mib on monomials",
    "monomials.basis_density": "peak_rss_mib on monomials",
    "monomials.rank_s": "wall_s/largest_s on monomials",
    "monomials.float_check_s": "ok_share on alternate; setup_s everywhere once numpy goes",
    "cli.self_s": "wall_s on monomials",
    "cli.output_bytes": "wall_s on monomials",
    "trace.overhead_s": "nothing: the traced pass's seconds minus the untraced pass's",
}

# name -> (unit, better), in the order BENCHMARK.json lists them.
PER_LAYER = {
    name: (
        "count" if name.endswith(("_calls", "_inits"))
        else "s" if name.endswith("_s")
        else "terms" if name.endswith("max_terms")
        else "bits" if name.endswith("_bits")
        else "bytes" if name.endswith("_bytes")
        else "share",
        "higher" if name.endswith(("valid_share", "density")) else "lower",
    )
    for name in LAYER_MAP
}

# Span name -> (owner, attribute) of every function wrapped with a span.
SPANNED = {
    "patterns.enumerate": [(patterns, "enumerate_patterns")],
    "operators.operator_matrix": [(operators, "operator_matrix")],
    "operators.general_element": [(operators, "general_element")],
    "operators.commutator": [(operators, "commutator")],
    "operators.verify_sln_relations": [(operators, "verify_sln_relations")],
    "raising.apply_word": [(raising, "apply_word")],
    "raising.verify_raise": [(raising, "verify_raise")],
    "raising.simplicity_certificate": [(raising, "simplicity_certificate")],
    "monomials.monomial_family": [(monomials, "monomial_family")],
    "monomials.basis_matrix": [(monomials, "basis_matrix")],
    "monomials.rank": [(monomials, "rank")],
    "monomials.float_check": [(OperatorMatrix, "to_float_array"),
                              (numpy.linalg, "svd")],
}

# Functions that are only counted and timed: too hot for a span each.
TIMED = {
    "operators.act": [(operators, "act_raise"), (operators, "act_lower"),
                      (operators, "act_diag")],
    "patterns.replace": [(GTPattern, "replace")],
    "raising.apply_generator": [(raising, "apply_generator")],
}

CLI_COMMANDS = ("verify", "monomials")


class Tracer:
    """Installs the layer wrappers and turns what they record into metrics."""

    def __init__(self):
        self.spans: list[tuple | None] = []  # (id, name, start, end, parent)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counts: dict[str, int] = {"patterns.replace_valid": 0}
        self.times: dict[str, float] = {}
        # scalar counters: add, sub, neg, mul, zero operand, max terms, max bits
        self.scalar = {"add": 0, "sub": 0, "neg": 0, "mul": 0, "zero": 0,
                       "terms": 0, "bits": 0, "depth": 0}
        self.nnz = {"matrix": [0, 0], "basis": [0, 0]}  # [nonzeros, cells]
        self.output_bytes = 0

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        original = owner.__dict__[attr]
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # module-level function: replace it wherever gtbasis imported it too
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "gtbasis" or name.startswith("gtbasis.")
                                   or mod is owner):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        post = {
            "operators.operator_matrix": self._density("matrix"),
            "operators.commutator": self._density("matrix"),
            "monomials.basis_matrix": self._density("basis"),
        }
        for name, targets in SPANNED.items():
            for owner, attr in targets:
                fn = owner.__dict__[attr]
                self._patch(owner, attr, self._span(name, fn, post.get(name)))
        for name, targets in TIMED.items():
            for owner, attr in targets:
                fn = owner.__dict__[attr]
                check = self._replace_valid if name == "patterns.replace" else None
                self._patch(owner, attr, self._timed(name, fn, check))
        for command in CLI_COMMANDS:
            cmd = cli.main.commands[command]
            original = cmd.callback
            self._patches.append((cmd, "callback", original))
            cmd.callback = self._span("cli." + command, original)
        self._patch(GTPattern, "__init__", self._counted_init(GTPattern.__init__))
        for op in ("add", "sub", "mul"):
            attr = "__%s__" % op
            self._patch(RadicalScalar, attr,
                        self._binary(op, RadicalScalar.__dict__[attr]))
        self._patch(RadicalScalar, "__neg__", self._neg(RadicalScalar.__neg__))
        self._patch(RadicalScalar, "invert", self._invert(RadicalScalar.invert))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, post=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (sid, name, start, end, parent)
            if post is not None:
                # a span of its own, so the caller's self time excludes it
                post(result)
                spans.append((len(spans), "trace.post", end, perf_counter(), parent))
            return result

        return wrapper

    def _timed(self, name, fn, check=None):
        counts, times = self.counts, self.times
        counts[name] = 0
        times[name] = 0.0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            times[name] += perf_counter() - start
            counts[name] += 1
            if check is not None:
                check(result)
            return result

        return wrapper

    def _replace_valid(self, result):
        if result is not None:
            self.counts["patterns.replace_valid"] += 1

    def _counted_init(self, init):
        counts = self.counts
        counts["patterns.pattern_inits"] = 0

        @functools.wraps(init)
        def wrapper(obj, *args, **kwargs):
            counts["patterns.pattern_inits"] += 1
            init(obj, *args, **kwargs)

        return wrapper

    def _note(self, result):
        """Track the size of a scalar that crossed into another layer."""
        sc = self.scalar
        terms = result.terms
        if len(terms) > sc["terms"]:
            sc["terms"] = len(terms)
        for c in terms.values():
            bits = c.numerator.bit_length()
            if bits > sc["bits"]:
                sc["bits"] = bits

    def _binary(self, op, fn):
        sc, note = self.scalar, self._note

        @functools.wraps(fn)
        def wrapper(a, b):
            if sc["depth"]:
                return fn(a, b)
            sc["depth"] = 1
            try:
                result = fn(a, b)
            finally:
                sc["depth"] = 0
            sc[op] += 1
            if not a.terms or not getattr(b, "terms", True):
                sc["zero"] += 1
            if result is not NotImplemented:
                note(result)
            return result

        return wrapper

    def _neg(self, fn):
        sc = self.scalar

        @functools.wraps(fn)
        def wrapper(a):
            if not sc["depth"]:
                sc["neg"] += 1
            return fn(a)

        return wrapper

    def _invert(self, fn):
        sc, note, counts, times = self.scalar, self._note, self.counts, self.times
        counts["scalars.invert"] = 0
        times["scalars.invert"] = 0.0

        @functools.wraps(fn)
        def wrapper(a):
            if sc["depth"]:
                return fn(a)
            sc["depth"] = 1
            start = perf_counter()
            try:
                result = fn(a)
            finally:
                sc["depth"] = 0
            times["scalars.invert"] += perf_counter() - start
            counts["scalars.invert"] += 1
            note(result)
            return result

        return wrapper

    def _density(self, kind):
        acc = self.nnz[kind]

        def post(mat):
            acc[0] += sum(1 for row in mat.entries for v in row if v.terms)
            acc[1] += mat.dim * mat.dim

        return post

    # -- results -------------------------------------------------------------

    def span_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds (outermost calls) and self seconds."""
        spans = [s for s in self.spans if s is not None]
        by_id = {s[0]: s for s in spans}
        child_time: dict[int, float] = {}
        for sid, _, start, end, parent in spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        stats: dict[str, dict[str, float]] = {}
        for sid, name, start, end, parent in spans:
            st = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            st["calls"] += 1
            st["self_s"] += (end - start) - child_time.get(sid, 0.0)
            p = parent
            while p is not None and by_id[p][1] != name:
                p = by_id[p][4]
            if p is None:
                st["busy_s"] += end - start
        return stats

    def metrics(self, overhead_s: float) -> dict[str, float]:
        """Every per-layer metric, by name."""
        st = self.span_stats()

        def span(name, key):
            return st.get(name, {}).get(key, 0)

        def share(num, den):
            return num / den if den else 0.0

        sc, c, t = self.scalar, self.counts, self.times
        binary = sc["add"] + sc["sub"] + sc["mul"]
        cli_self = span("cli.verify", "self_s") + span("cli.monomials", "self_s")
        values = {
            "scalars.add_calls": sc["add"],
            "scalars.sub_calls": sc["sub"],
            "scalars.neg_calls": sc["neg"],
            "scalars.mul_calls": sc["mul"],
            "scalars.zero_operand_share": share(sc["zero"], binary),
            "scalars.invert_calls": c["scalars.invert"],
            "scalars.invert_s": t["scalars.invert"],
            "scalars.max_terms": sc["terms"],
            "scalars.max_num_bits": sc["bits"],
            "patterns.enumerate_calls": span("patterns.enumerate", "calls"),
            "patterns.enumerate_s": span("patterns.enumerate", "busy_s"),
            "patterns.pattern_inits": c["patterns.pattern_inits"],
            "patterns.replace_calls": c["patterns.replace"],
            "patterns.replace_s": t["patterns.replace"],
            "patterns.replace_valid_share": share(
                c["patterns.replace_valid"], c["patterns.replace"]),
            "operators.act_calls": c["operators.act"],
            "operators.act_s": t["operators.act"],
            "operators.operator_matrix_calls": span("operators.operator_matrix", "calls"),
            "operators.operator_matrix_s": span("operators.operator_matrix", "busy_s"),
            "operators.general_element_calls": span("operators.general_element", "calls"),
            "operators.general_element_s": span("operators.general_element", "busy_s"),
            "operators.commutator_calls": span("operators.commutator", "calls"),
            "operators.commutator_s": span("operators.commutator", "busy_s"),
            "operators.relations_self_s": span("operators.verify_sln_relations", "self_s"),
            "operators.matrix_density": share(*self.nnz["matrix"]),
            "raising.apply_word_calls": span("raising.apply_word", "calls"),
            "raising.apply_word_s": span("raising.apply_word", "busy_s"),
            "raising.apply_generator_calls": c["raising.apply_generator"],
            "raising.verify_raise_calls": span("raising.verify_raise", "calls"),
            "raising.verify_raise_s": span("raising.verify_raise", "busy_s"),
            "raising.certificate_self_s": span("raising.simplicity_certificate", "self_s"),
            "monomials.family_s": span("monomials.monomial_family", "busy_s"),
            "monomials.basis_matrix_s": span("monomials.basis_matrix", "busy_s"),
            "monomials.basis_density": share(*self.nnz["basis"]),
            "monomials.rank_s": span("monomials.rank", "busy_s"),
            "monomials.float_check_s": span("monomials.float_check", "busy_s"),
            "cli.self_s": cli_self,
            "cli.output_bytes": self.output_bytes,
            "trace.overhead_s": overhead_s,
        }
        assert list(values) == list(LAYER_MAP)
        return values

    def write_spans(self, path: str):
        """Write the spans as JSON lines: id, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                if s is not None:
                    sid, name, start, end, parent = s
                    fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")
