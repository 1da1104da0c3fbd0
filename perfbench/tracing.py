"""Spans around calls into the program's layers, for the traced run only.

`install` rebinds each traced function or method wherever a `hyperelliptic`
module namespace or class binds it, so calls made through
`from .exactlin import mat_mul`-style imports are caught too.  It is called
in a forked child that runs one operation and exits, so the parent's modules
are never rebound and untraced operations run the program as shipped.

A span is (name, start, end, parent span index); spans stay in memory in the
child and go to the parent when the operation ends.  Size hooks add
(metric name, value) events, such as the group order a closure produced.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# metric prefix -> (defining module, attribute path)
TRACED = {
    "cli.main": ("cli", "main"),
    "documents.load_document": ("documents", "load_document"),
    "documents.build_datum": ("documents", "build_datum"),
    "action.close_group": ("action", "close_group"),
    "action.validate": ("action", "validate"),
    "action.has_fixed_point": ("action", "has_fixed_point"),
    "torus.AlternatingForm.is_invariant_under": ("torus", "AlternatingForm.is_invariant_under"),
    "action.char_poly": ("action", "char_poly"),
    "action.cyclotomic_multiplicities": ("action", "cyclotomic_multiplicities"),
    "action.ActionGroup.compose_indices": ("action", "ActionGroup.compose_indices"),
    "action.quotient_by_translations": ("action", "quotient_by_translations"),
    "albanese.run_pipeline": ("albanese", "run_pipeline"),
    "albanese.compute_A0": ("albanese", "compute_A0"),
    "albanese.compute_A1": ("albanese", "compute_A1"),
    "albanese.compute_K": ("albanese", "compute_K"),
    "albanese.decompose_cocycle": ("albanese", "decompose_cocycle"),
    "albanese.compute_H": ("albanese", "compute_H"),
    "albanese.compute_albanese": ("albanese", "compute_albanese"),
    "albanese.compute_fiber": ("albanese", "compute_fiber"),
    "albanese.classify_fiber": ("albanese", "classify_fiber"),
    "invariants.irregularity": ("invariants", "irregularity"),
    "invariants.hodge_diamond": ("invariants", "hodge_diamond"),
    "invariants.canonical_order": ("invariants", "canonical_order"),
    "oracle.fixed_point_survey": ("oracle", "fixed_point_survey"),
    "oracle.oracle_fixed_points": ("oracle", "oracle_fixed_points"),
    "oracle.build_model": ("oracle", "build_model"),
    "oracle.oracle_fiber_count": ("oracle", "oracle_fiber_count"),
    "exactlin.hermite_normal_form": ("exactlin", "hermite_normal_form"),
    "exactlin.smith_normal_form": ("exactlin", "smith_normal_form"),
    "exactlin.kernel_lattice": ("exactlin", "kernel_lattice"),
    "cli.dumps_canonical": ("documents", "dumps_canonical"),
}

# leaf functions called too often for a span: only their calls are counted
COUNTED = {"exactlin.mat_mul": ("exactlin", "mat_mul")}

# size events reduced by summing over a pass; every other size takes the maximum
SUMMED_SIZES = {"action.close_group.elements"}


def _bits(*matrices) -> int:
    return max((abs(x).bit_length() for m in matrices for row in m for x in row), default=0)


def _close_group_sizes(package, args, result):
    cap = args["cap"]
    yield "action.close_group.elements", result.order
    yield "action.close_group.cap_share", result.order / cap


def _compute_K_sizes(package, args, result):
    yield "albanese.compute_K.k_order", result.k.order
    yield "albanese.compute_K.cap_share", result.k.order / package.albanese.K_ENUMERATION_CAP


def _compute_H_sizes(package, args, result):
    yield "albanese.compute_H.h_order", len(result[0])


def _build_model_sizes(package, args, result):
    # the number of points build_model compares with its cap
    level, rank = args["level"], args["d"].rank
    size = 2 * level ** (rank - rank // 2) if args["split_counting"] else level**rank
    yield "oracle.build_model.points", size
    yield "oracle.cap_share", size / args["cap"]


def _hnf_sizes(package, args, result):
    m = args["m"]
    yield "exactlin.hermite_normal_form.max_dim", max(len(m), len(m[0]) if m else 0)
    yield "exactlin.hermite_normal_form.max_bits", _bits(m, *result)


SIZE_HOOKS = {
    "action.close_group": _close_group_sizes,
    "albanese.compute_K": _compute_K_sizes,
    "albanese.compute_H": _compute_H_sizes,
    "oracle.build_model": _build_model_sizes,
    "exactlin.hermite_normal_form": _hnf_sizes,
}


class Tracer:
    """Spans, call counts and size events of one operation."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self.sizes: list[tuple[str, float]] = []
        self._stack: list[int] = []

    def span(self, name, fn, package):
        hook = SIZE_HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.sizes.extend(hook(package, bound.arguments, result))
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def export(self):
        return self.spans, self.counts, self.sizes


def _rebind(package, module_name, path, wrap):
    owner = getattr(package, module_name)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    original = getattr(owner, attr)
    wrapper = wrap(original)
    if classes:
        setattr(owner, attr, wrapper)
        return
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != package.__name__ or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def install(package) -> Tracer:
    """Rebind every traced function of the imported package; return the tracer."""
    tracer = Tracer()
    for name, (module_name, path) in TRACED.items():
        _rebind(package, module_name, path, lambda fn, n=name: tracer.span(n, fn, package))
    for name, (module_name, path) in COUNTED.items():
        _rebind(package, module_name, path, lambda fn, n=name: tracer.counter(n, fn))
    return tracer


def operation_totals(spans, counts, sizes) -> dict[str, float]:
    """Per-layer quantities of one operation.

    `.s` is inclusive time over the outermost spans of a name (a recursive
    call is not counted twice), `.self_s` is each span's duration minus its
    direct children's, and `.calls` counts every span.
    """
    totals: dict[str, float] = dict.fromkeys(
        [f"{n}.{q}" for n in TRACED for q in ("s", "self_s", "calls")], 0.0
    )
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for index, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_s"] += duration - child_time[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            totals[f"{name}.s"] += duration
    for name, count in counts.items():
        totals[f"{name}.calls"] = count
    for name, value in sizes:
        if name in SUMMED_SIZES:
            totals[name] = totals.get(name, 0) + value
        else:
            totals[name] = max(totals.get(name, 0), value)
    return totals


def merge_totals(per_operation) -> dict[str, float]:
    """Combine operation totals into the totals of one pass."""
    merged: dict[str, float] = {}
    for totals in per_operation:
        for key, value in totals.items():
            if _is_max(key):
                merged[key] = max(merged.get(key, 0), value)
            else:
                merged[key] = merged.get(key, 0) + value
    return merged


def _is_max(key: str) -> bool:
    quantity = key.rsplit(".", 1)[1]
    return quantity not in ("s", "self_s", "calls") and key not in SUMMED_SIZES
