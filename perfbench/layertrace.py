"""Outside-in layer tracing: wraps the package's public functions in spans.

``Tracer.install()`` replaces each traced function or method with a wrapper
that records a span (layer, start, end, parent span, job). Module-level
functions are rebound under every name a ``sullivan`` module holds them by,
because the modules import each other's functions by name. ``uninstall()``
puts the originals back, so untimed checks and untraced passes run the
unwrapped code.

``Element`` and ``Fraction`` arithmetic is not wrapped: it runs millions of
times, and its time lands in the caller's self time (mostly
``dgca.d_monomial``).

Spans stay in memory; ``job_tree`` and ``layer_totals`` summarise them
after the run. A span's self time is its duration minus its children's
durations, minus the bookkeeping the tracer did on its behalf, and minus the
time the host-speed sampler ran inside it.
"""

from __future__ import annotations

import time

import sullivan
import sullivan.attachment as attachment
import sullivan.cli as cli
import sullivan.dgca as dgca
import sullivan.expr as expr
import sullivan.fixtures as fixtures
import sullivan.formality as formality
import sullivan.gca as gca
import sullivan.linalg as linalg
import sullivan.minimal_model as minimal_model
import sullivan.presented as presented

MODULES = (sullivan, gca, linalg, presented, dgca, minimal_model, attachment,
           formality, fixtures, expr, cli)

# layer name -> (owner, attribute). Classes get their method replaced;
# modules get the function replaced everywhere it is bound.
TARGETS = {
    "gca.monomial_basis": (gca, "monomial_basis"),
    "linalg.insert": (linalg.RowSpace, "insert"),
    "linalg.reduce": (linalg.RowSpace, "reduce"),
    "linalg.kernel": (linalg.RowSpace, "kernel"),
    "linalg.solve_in_span": (linalg, "solve_in_span"),
    "linalg.intersect_spans": (linalg, "intersect_spans"),
    "presented.graded_component": (presented.PresentedAlgebra, "graded_component"),
    "presented.indecomposables": (presented.PresentedAlgebra, "indecomposables"),
    "presented.product": (presented.PresentedAlgebra, "product"),
    "dgca.freedgca": (dgca.FreeDGCA, "__init__"),
    "dgca.d_monomial": (dgca.FreeDGCA, "d_monomial"),
    "dgca.cohomology": (dgca.FreeDGCA, "cohomology"),
    "minimal_model.build": (minimal_model, "build_minimal_model"),
    "minimal_model.preimage": (minimal_model, "preimage_in_v0_v1"),
    "attachment.build": (attachment.AttachmentModel, "__init__"),
    "attachment.verify_d_squared": (attachment.AttachmentModel, "verify_d_squared"),
    "attachment.cohomology": (attachment.AttachmentModel, "cohomology"),
    "attachment.u_decomposable": (attachment.AttachmentModel, "u_decomposable"),
    "formality.verdict": (formality, "formality_verdict"),
    "formality.verify_standard": (minimal_model, "verify_standard"),
    "formality.even_complex": (formality, "even_complex_formality"),
    "cli.main": (cli, "main"),
    "fixtures.build_fixture": (fixtures, "build_fixture"),
    "expr.parse_element": (expr, "parse_element"),
}

# Aliases the traced run must rebind; install() fails loudly if one is missed.
REQUIRED_ALIASES = {
    "monomial_basis": (dgca, minimal_model, presented, formality),
    "solve_in_span": (dgca, minimal_model, attachment),
    "build_minimal_model": (formality, fixtures, cli),
    "verify_standard": (formality,),
    "formality_verdict": (cli,),
    "build_fixture": (cli,),
}


class Tracer:
    """Collects spans and per-layer counters while installed."""

    def __init__(self):
        self.layers = list(TARGETS)
        self.layer_id = {name: i for i, name in enumerate(self.layers)}
        self.spans: list = []  # (layer id, start, end, parent index, job)
        self.stack: list[int] = [-1]
        self.hook_time: dict[int, float] = {}  # span index -> tracer seconds
        self.sampler_time: dict[int, float] = {}  # span index -> sampler seconds
        self.job = -1
        self.counters: dict[str, int] = {}
        self._seen_bases: set = set()
        self._seen_monomials: set = set()
        self._saved: list[tuple[object, str, object]] = []

    # --- jobs ---------------------------------------------------------------
    def start_job(self, job: int):
        """Open a new job: per-job repeat sets start empty."""
        self.job = job
        self._seen_bases = set()
        self._seen_monomials = set()

    def exclude(self, seconds: float):
        """Charge host-speed sampler time to no layer: it ran inside the open span."""
        span = self.stack[-1]
        self.sampler_time[span] = self.sampler_time.get(span, 0.0) + seconds

    def count(self, key: str, n: int = 1):
        self.counters[key] = self.counters.get(key, 0) + n

    # --- hooks: counters measured where the work happens ------------------------
    def _hook_monomial_basis(self, args, kwargs, result):
        gens, degree = args
        self.count("gca.monomial_basis.monomials", len(result))
        key = (frozenset(gens), degree)
        if key in self._seen_bases:
            self.count("gca.monomial_basis.repeats")
        else:
            self._seen_bases.add(key)

    def _hook_d_monomial(self, args, kwargs, result):
        self.count("dgca.d_monomial.terms", len(result._terms))
        mon = args[1]
        if mon in self._seen_monomials:
            self.count("dgca.d_monomial.repeats")
        else:
            self._seen_monomials.add(mon)

    def _hook_insert(self, args, kwargs, result):
        if result is None:
            self.count("linalg.insert.dependent")
            return
        row = args[0]._rows[result]
        bits = max(abs(v).bit_length() for v in row.values())
        if bits > self.counters.get("linalg.max_coeff_bits", 0):
            self.counters["linalg.max_coeff_bits"] = bits

    def _hook_build(self, args, kwargs, result):
        self.count("minimal_model.generators", len(result.generators))

    def _pre_graded_component(self, args):
        algebra, m = args
        if m in algebra._components:
            self.count("presented.graded_component.hits")

    # --- wrapping -----------------------------------------------------------
    def _wrap(self, name: str, fn):
        lid = self.layer_id[name]
        spans, stack, hook_time = self.spans, self.stack, self.hook_time
        clock = time.perf_counter
        post = {
            "gca.monomial_basis": self._hook_monomial_basis,
            "dgca.d_monomial": self._hook_d_monomial,
            "linalg.insert": self._hook_insert,
            "minimal_model.build": self._hook_build,
        }.get(name)
        pre = self._pre_graded_component if name == "presented.graded_component" else None
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            if pre is not None:
                h0 = clock()
                pre(args)
                hook_time[parent] = hook_time.get(parent, 0.0) + (clock() - h0)
            index = len(spans)
            spans.append(None)
            stack.append(index)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[index] = (lid, t0, t1, parent, tracer.job)
            if post is not None:
                post(args, kwargs, result)
                hook_time[parent] = hook_time.get(parent, 0.0) + (clock() - t1)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, (owner, attr) in TARGETS.items():
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in MODULES:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, alias, original))
                        setattr(mod, alias, wrapper)
        for alias, mods in REQUIRED_ALIASES.items():
            for mod in mods:
                if not hasattr(getattr(mod, alias), "__wrapped__"):
                    raise RuntimeError(f"{mod.__name__}.{alias} was not wrapped")

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # --- summaries ----------------------------------------------------------
    def _self_times(self, first: int, last: int) -> list[float]:
        """Self time of spans[first:last]; their parents lie in the same range."""
        spans = self.spans
        selfs = [s[2] - s[1] for s in spans[first:last]]
        for i in range(first, last):
            parent = spans[i][3]
            if parent >= first:
                selfs[parent - first] -= spans[i][2] - spans[i][1]
        for excluded in (self.hook_time, self.sampler_time):
            for parent, t in excluded.items():
                if first <= parent < last:
                    selfs[parent - first] -= t
        return selfs

    def layer_totals(self, first: int, last: int) -> dict[str, dict]:
        """calls and self seconds per layer for spans[first:last]."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.layers}
        selfs = self._self_times(first, last)
        for span, s in zip(self.spans[first:last], selfs):
            entry = out[self.layers[span[0]]]
            entry["calls"] += 1
            entry["self_s"] += s
        return out

    def job_tree(self, first: int, last: int, root_name: str, wall: float) -> dict:
        """The spans of one job folded into a call tree keyed by layer path.

        The root is the job itself; its self time is the job's wall time
        outside every traced layer.
        """
        selfs = self._self_times(first, last)
        root = {"name": root_name, "calls": 1, "total_s": wall, "self_s": wall,
                "children": {}}
        nodes: list[dict] = []
        for i in range(first, last):
            lid, t0, t1, parent, _ = self.spans[i]
            parent_node = nodes[parent - first] if parent >= first else root
            name = self.layers[lid]
            node = parent_node["children"].get(name)
            if node is None:
                node = parent_node["children"][name] = {
                    "name": name, "calls": 0, "total_s": 0.0, "self_s": 0.0, "children": {}}
            node["calls"] += 1
            node["total_s"] += t1 - t0
            node["self_s"] += selfs[i - first]
            nodes.append(node)
            if parent < first:
                root["self_s"] -= t1 - t0

        def freeze(node):
            node["children"] = [freeze(c) for c in node["children"].values()]
            node["total_s"] = round(node["total_s"], 6)
            node["self_s"] = round(node["self_s"], 6)
            return node

        return freeze(root)

