"""Span-and-counter recorder for the traced benchmark run.

install() wraps spunslice's public entry points, replacing each function at
every name through which callers reach it (its own module, the package
re-exports, and every module that imported it by name), and the two methods
FiniteGroup.__init__ and GroupPresentation.simplified on their classes.  A
wrapper opens a span named after the layer, calls the original, closes the
span and updates the layer's counters from the arguments and the result.

Spans are kept in memory as [name, start, end, parent, operation] and turned
into per-layer metrics at the end; a span's self time is its duration minus
the durations of its children (spans nest strictly, one thread), corrected
with its operation's host-speed factor (hostspeed.py).  The program's own
code is untouched, so traced and untraced runs compute the same bytes.

group_closure is deliberately not wrapped: its cost is the products of the
elements it closes, so it is charged to the caller's layer (unit-quaternion
products to quaternions, permutation products to the finite constructors).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from functools import wraps


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, operation]
        self.stack: list[int] = []
        self.operations = 0  # root spans opened, one per benchmark operation
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, int] = defaultdict(int)
        self.times: list[tuple[str, float, int]] = []  # (metric, seconds, operation)

    def open(self, name: str) -> int:
        if self.stack:
            parent = self.stack[-1]
            operation = self.spans[parent][4]
        else:
            parent, operation = -1, self.operations
            self.operations += 1
        self.spans.append([name, time.perf_counter(), None, parent, operation])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        now = time.perf_counter()
        while self.stack:  # also closes spans left open by an interrupt
            top = self.stack.pop()
            self.spans[top][2] = now
            if top == index:
                return

    def deadline_hit(self) -> None:
        """Charge a missed deadline to the layer of the innermost open span."""
        if self.stack:
            layer = self.spans[self.stack[-1]][0].split(".")[0]
            self.counters[f"{layer}.deadline_hits"] += 1

    def time(self, metric: str, seconds: float) -> None:
        """Add seconds measured inside the current operation to a metric."""
        self.times.append((metric, seconds, self.spans[self.stack[0]][4]))

    def self_times(self, factors: list[float]) -> dict[str, float]:
        """Self time per span name, each span scaled by its operation's factor."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _parent, op), covered in zip(self.spans, child):
            out[name] += (end - start - covered) * factors[op]
        for metric, seconds, op in self.times:
            out[metric] += seconds * factors[op]
        return out


def _wrap(rec: Recorder, fn, name, hook):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.open(name(args) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if hook is not None:
            hook(rec, args, result)
        return result

    return wrapper


# counters, each called as hook(rec, args, result)


def _count(key):
    def hook(rec, args, result):
        rec.counters[key] += 1

    return hook


def _pd(rec, args, result):
    rec.counters["diagrams.calls"] += 1
    rec.counters["diagrams.pd_crossings"] += result.n_crossings


def _side_map(rec, args, result):
    curve = args[1]  # every face of the grid sphere is flooded once
    rows = sum(r - 1 for r in curve.rows)
    rec.counters["decker.calls"] += 1
    rec.counters["decker.grid_faces"] += curve.m * (2 + curve.l + rows)


def _goeritz(rec, args, result):
    rec.maxima["covers.goeritz_dim"] = max(rec.maxima["covers.goeritz_dim"], result.shaded_faces - 1)


def _fox(rec, args, result):
    dim = max(args[0].n_crossings - 1, 0)
    rec.maxima["covers.fox_dim"] = max(rec.maxima["covers.fox_dim"], dim)


def _presentation_size(rec, pres):
    rec.counters["presentations.generators"] += pres.n_generators
    rec.counters["presentations.relator_letters"] += sum(len(r) for r in pres.relators)


def _abelianization(rec, args, result):
    _presentation_size(rec, args[0])


def _snf(rec, args, result):
    matrix = args[0]
    rec.counters["snf.calls"] += 1
    rec.counters["snf.matrix_cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)


def _todd_coxeter(rec, args, result):
    _presentation_size(rec, args[0])
    rec.counters["toddcoxeter.cosets_defined"] += result.cosets_defined
    rec.counters["toddcoxeter.index"] += result.index or 0
    rec.counters["toddcoxeter.inconclusive"] += not result.complete


def _hom_count_name(args):
    return f"homcount.{args[1].name or 'order' + str(args[1].order)}.self"


def _hom_count(rec, args, result):
    _presentation_size(rec, args[0])
    rec.counters["homcount.calls"] += 1
    rec.counters["homcount.inconclusive"] += not result.exact
    rec.counters[_hom_count_name(args)[: -len("self")] + "nodes"] += result.nodes


def _certify(rec, args, result):
    for premise, seconds in result.timing.items():
        rec.time(f"certificate.premise.{premise}", seconds)


def _corpus(rec, args, result):
    rec.counters["corpus.rows"] += len(result.rows)


def _public_functions(module):
    return [
        name for name, value in vars(module).items()
        if not name.startswith("_") and callable(value) and not isinstance(value, type)
        and getattr(value, "__module__", None) == module.__name__
    ]


def _targets():
    """(owner, attribute, span name, hook) for every wrapped entry point."""
    from spunslice import certificate, corpus, covers, decker, diagrams
    from spunslice.groups import finite, homcount, presentations, quaternions, snf, toddcoxeter

    out = []
    for name in _public_functions(diagrams):
        out.append((diagrams, name, "diagrams.self", _pd if name == "plat_to_pd" else _count("diagrams.calls")))
    for name in _public_functions(decker):
        out.append((decker, name, "decker.self", _side_map if name == "side_map" else _count("decker.calls")))
    out += [
        (covers, "goeritz", "covers.goeritz", _goeritz),
        (covers, "goeritz_determinant", "covers.goeritz", None),
        (covers, "checkerboard", "covers.goeritz", None),
        (covers, "alexander_det", "covers.fox", _fox),
        (covers, "alexander_polynomial", "covers.fox", _fox),
        (covers, "surgery_description", "covers.surgery", None),
        (covers, "cobordism_linking_matrix", "covers.surgery", None),
        (covers, "is_definite", "covers.surgery", None),
        (presentations, "wirtinger", "presentations.self", None),
        (presentations, "cobordism_presentation", "presentations.self", None),
        (presentations, "branched_cover_presentation", "presentations.self", None),
        (presentations, "reidemeister_schreier_index2", "presentations.self", None),
        (presentations, "abelianization", "presentations.self", _abelianization),
        (presentations.GroupPresentation, "simplified", "presentations.self", None),
        (snf, "smith_normal_form", "snf.self", _snf),
        (snf, "elementary_divisors", "snf.self", None),
        (snf, "abelian_invariants", "snf.self", None),
        (toddcoxeter, "todd_coxeter", "toddcoxeter.self", _todd_coxeter),
        (toddcoxeter, "regular_representation", "toddcoxeter.regular_rep", None),
        (finite.FiniteGroup, "__init__", "finite.construct", _count("finite.constructions")),
        (finite, "symmetric_group", "finite.construct", None),
        (finite, "alternating_group", "finite.construct", None),
        (finite, "cyclic_group", "finite.construct", None),
        (finite, "sl2_f5", "finite.construct", None),
        (finite, "structure_report", "finite.structure", _count("finite.structure_calls")),
        (finite, "iso_check", "finite.iso", _count("finite.iso_calls")),
        (finite, "su2_obstruction", "finite.su2", None),
        (quaternions, "icosian_group", "quaternions.icosian", None),
        (quaternions, "icosian_involution_lemma", "quaternions.lemma", None),
        (homcount, "hom_count", _hom_count_name, _hom_count),
        (homcount, "collapse_check", "homcount.collapse", None),
        (certificate, "certify", "certificate.self", _certify),
        (certificate, "certificate_dict", "certificate.serialize", None),
        (certificate, "certificate_json", "certificate.serialize", None),
        (certificate, "format_certificate", "certificate.serialize", None),
        (corpus, "corpus_run", "corpus.self", _corpus),
        (corpus, "format_corpus_report", "corpus.self", None),
    ]
    return out


def install(rec: Recorder) -> None:
    """Wrap every target wherever a spunslice module binds it."""
    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "spunslice"]
    for owner, attr, name, hook in _targets():
        original = vars(owner)[attr]
        wrapper = _wrap(rec, original, name, hook)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        for module in modules:
            for bound, value in list(vars(module).items()):
                if value is original:
                    setattr(module, bound, wrapper)


def layer_metrics(rec: Recorder, passes: int, factors: list[float]) -> dict[str, float]:
    """Per-pass layer metrics: self seconds as '<span>_s' (in reference seconds,
    factors[k] being that of the k-th operation), counters and maxima."""
    out: dict[str, float] = {}
    for name, seconds in rec.self_times(factors).items():
        if name != "op":
            out[f"{name}_s"] = seconds / passes
    for key, value in rec.counters.items():
        out[key] = value / passes
    out.update(rec.maxima)
    defined, index = rec.counters["toddcoxeter.cosets_defined"], rec.counters["toddcoxeter.index"]
    out["toddcoxeter.useful_ratio"] = index / defined if defined else 0.0
    return out
