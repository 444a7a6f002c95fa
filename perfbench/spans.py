"""Spans around the public functions of each rankforge module.

Child side: a Tracer wraps every target on every rankforge module
namespace that bound it (``from .family import is_good_prime`` in nagao
makes ``nagao.is_good_prime`` a second binding), keeps one span per call
in memory, writes the spans out at exit and restores the originals.

Parent side: layer_metrics turns the written spans into per-layer counts
and self times (span time minus the time of its direct child spans).
"""

import functools
import json
import sys
import time
from collections import Counter, defaultdict


def _ap_span(args):
    """A_p spans are keyed by residue degree: the r = 1 and r > 1 kernels."""
    return "nagao.ap_r1" if getattr(args[1], "f", 1) == 1 else "nagao.ap_r2"


def _count_ideals(args, result):
    return len(result)


def _bad_ideal(args, result):
    return None if result[0] else args[1].label()


def _ap_not_minus6(args, result):
    return int(result.good and result.A_p != -6)


def _sweep_totals(args, result):
    return [sum(r.checked for r in result), sum(r.mismatches for r in result)]


# (module, attribute, span name or a function of the call's args giving it,
#  info(args, result) stored on the span or None)
TARGETS = (
    ("primes", "sieve", "primes.sieve", None),
    ("poly", "factor_mod_p", "poly.factor_mod_p", None),
    ("number_field", "enumerate_prime_ideals",
     "number_field.enumerate_prime_ideals", _count_ideals),
    ("number_field", "prime_ideals_above", "number_field.prime_ideals_above", None),
    ("number_field", "reduce_elem", "number_field.reduce_elem", None),
    ("number_field", "landau_sum", "number_field.landau_sum", None),
    ("family", "construct_family", "family.construct_family", None),
    ("family", "is_good_prime", "family.is_good_prime", _bad_ideal),
    ("family", "reduce_family", "family.reduce_family", None),
    ("finite_field", "FqField.chi_table", "finite_field.chi_table", None),
    ("finite_field", "FqField.elements", "finite_field.elements", None),
    ("nagao", "average_A_p_analytic", _ap_span, _ap_not_minus6),
    ("nagao", "average_A_p_direct", _ap_span, _ap_not_minus6),
    ("nagao", "nagao_partial_sum", "nagao.nagao_partial_sum", None),
    ("nagao", "rank_estimate", "nagao.rank_estimate", None),
    ("legendre", "verify_quad_sums", "legendre.verify_quad_sums", _sweep_totals),
    ("legendre", "standard_field", "legendre.standard_field", None),
)

AP_SPANS = ("nagao.ap_r1", "nagao.ap_r2")
SERIES_SPAN = "nagao.nagao_partial_sum"

# counts carried by span info, and the span whose target produces them
DERIVED = {
    "number_field.ideals": "number_field.enumerate_prime_ideals",
    "family.bad_ideals": "family.is_good_prime",
    "nagao.ap_not_minus6": "nagao.ap_r1",
    "legendre.triples_checked": "legendre.verify_quad_sums",
    "legendre.mismatches": "legendre.verify_quad_sums",
}


def target_spans(target):
    name = target[2]
    return AP_SPANS if callable(name) else (name,)


def lookup(module, attr):
    """(owner, leaf name, original) for rankforge.<module>.<attr>, where
    attr may be "Class.method"; original is None when the name is gone."""
    owner = sys.modules.get(f"rankforge.{module}")
    path, _, leaf = attr.rpartition(".")
    if owner is not None and path:
        owner = getattr(owner, path, None)
    original = getattr(owner, leaf, None) if owner is not None else None
    return owner, leaf, original


def bind_everywhere(module, attr, replacement):
    """Replace rankforge.<module>.<attr> on every rankforge namespace bound
    to the same object. Returns (undo list, found)."""
    owner, leaf, original = lookup(module, attr)
    if original is None:
        return [], False
    if "." in attr:  # a method: one binding, on the class
        owners = [(owner, leaf)]
    else:
        owners = [(mod, key)
                  for name, mod in list(sys.modules.items())
                  if mod is not None and (name == "rankforge"
                                          or name.startswith("rankforge."))
                  for key, value in list(vars(mod).items())
                  if value is original]
    undo = []
    for obj, key in owners:
        undo.append((obj, key, getattr(obj, key)))
        setattr(obj, key, replacement)
    return undo, True


class Tracer:
    """In-memory span recorder. Install after rankforge is imported."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, info]
        self.stack = []
        self.absent = []
        self._undo = []

    def install(self, targets=TARGETS):
        for module, attr, name, info in targets:
            _, _, original = lookup(module, attr)
            if original is None:
                self.absent.append(f"{module}.{attr}")
                continue
            undo, _ = bind_everywhere(
                module, attr, self._wrap(original, name, info))
            self._undo.extend(undo)

    def uninstall(self):
        for obj, key, original in reversed(self._undo):
            setattr(obj, key, original)
        self._undo = []

    def _wrap(self, fn, name, info):
        spans, stack, clock = self.spans, self.stack, time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name(args) if callable(name) else name, 0.0, 0.0,
                    stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, result)
            return result

        return traced

    def dump(self, path):
        """Write the spans; dump_start lets the reader leave out the cost
        of writing them."""
        dump_start = time.monotonic()
        ids = {}
        rows = [[ids.setdefault(s[0], len(ids)), *s[1:]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": list(ids), "spans": rows,
                                 "absent": self.absent,
                                 "dump_start": dump_start}))


def absent_metrics(absent_targets, metric_names):
    """Metric names whose every producing target is absent."""
    gone = set()
    present = set()
    for target in TARGETS:
        spans = target_spans(target)
        if f"{target[0]}.{target[1]}" in absent_targets:
            gone.update(spans)
        else:
            present.update(spans)
    gone -= present
    out = []
    for metric in metric_names:
        span = DERIVED.get(metric, metric.rpartition(".")[0])
        if span in gone:
            out.append(metric)
    return out


def layer_metrics(doc):
    """Per-layer counts and self times from one traced run's spans.

    Returns (metrics, series, top_s): series holds the counts of the rank
    series pass (spans below nagao_partial_sum) for the consistency check,
    top_s the total time inside outermost spans.
    """
    names, spans = doc["names"], doc["spans"]
    child = [0.0] * len(spans)
    in_series = [False] * len(spans)
    for i, (nid, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            in_series[i] = (in_series[parent]
                            or names[spans[parent][0]] == SERIES_SPAN)
    calls = Counter()
    self_s = defaultdict(float)
    top_s = 0.0
    ideals = not_minus6 = checked = mismatches = 0
    bad, series_bad = set(), set()
    series = {"ideals": 0, "ap_calls": 0}
    for i, (nid, start, end, parent, info) in enumerate(spans):
        name = names[nid]
        calls[name] += 1
        self_s[name] += (end - start) - child[i]
        if parent < 0:
            top_s += end - start
        if name in AP_SPANS and in_series[i]:
            series["ap_calls"] += 1
        if info is None:
            continue
        if name == "number_field.enumerate_prime_ideals":
            ideals += info
            if in_series[i]:
                series["ideals"] += info
        elif name == "family.is_good_prime":
            bad.add(info)
            if in_series[i]:
                series_bad.add(info)
        elif name in AP_SPANS:
            not_minus6 += info
        elif name == "legendre.verify_quad_sums":
            checked += info[0]
            mismatches += info[1]
    series["bad_ideals"] = len(series_bad)
    metrics = {}
    for target in TARGETS:
        for span in target_spans(target):
            metrics[f"{span}.calls"] = calls[span]
            metrics[f"{span}.self_s"] = self_s[span]
    metrics.update({
        "number_field.ideals": ideals,
        "family.bad_ideals": len(bad),
        "nagao.ap_not_minus6": not_minus6,
        "legendre.triples_checked": checked,
        "legendre.mismatches": mismatches,
    })
    return metrics, series, top_s
