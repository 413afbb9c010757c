"""Per-layer metrics from the spans ``tracer.py`` writes.

The layers are the modules of ``hilbhodge``; which end-to-end metric
each figure should move, on which workload, is listed in ``README.md``.
Self time is a span's busy time minus that of its child spans; an
inclusive time (``*_s`` without ``self``) counts only spans with no
ancestor of the same names, so recursion is not counted twice.
"""

from __future__ import annotations

from statistics import median

RENDER_SPANS = (
    "cli.render_diamond", "cli.render_latex", "cli.render_json", "cli.render_poly",
    "cli._render", "cli._series_yt_payload", "cli.json.dumps", "cli.json.loads",
)
LOAD_SPANS = ("surfaces.load_dataset", "surfaces.preset")
HH_SPANS = ("engine.hh_dims", "engine.hh_rhs_series", "engine.hh_from_rhs")
EMPTY_RECORD = {  # a traced command that wrote no spans
    "import_s": 0.0,
    "spans": [],
    "counters": {"mul_terms_out": 0, "coeff_max_bits": 0, "compositions": 0, "sym_distinct": 0},
}


def _children_busy(spans: list[list]) -> list[float]:
    out = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            out[span[3]] += span[4]
    return out


def _outermost(spans: list[list], names) -> float:
    """Busy time of spans named in ``names`` that have no such ancestor."""
    total = 0.0
    for span in spans:
        if span[0] not in names:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += span[4]
    return total


def command_metrics(record: dict) -> dict[str, float]:
    """Per-layer figures of one traced command (see README.md for the map)."""
    spans, counters = record["spans"], record["counters"]
    child = _children_busy(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, span in enumerate(spans):
        calls[span[0]] = calls.get(span[0], 0) + 1
        self_s[span[0]] = self_s.get(span[0], 0.0) + span[4] - child[i]
    partition_names = [n for n in calls if n.startswith("partitions.")]
    return {
        "cli.import_ms": record["import_s"] * 1000,
        "cli.render_s": _outermost(spans, RENDER_SPANS),
        "surfaces.load_s": _outermost(spans, LOAD_SPANS),
        "surfaces.load_calls": sum(calls.get(n, 0) for n in LOAD_SPANS),
        "series.mul_calls": calls.get("series.mul", 0),
        "series.mul_self_s": self_s.get("series.mul", 0.0),
        "series.mul_terms_out": counters["mul_terms_out"],
        "series.invert_calls": calls.get("series.invert", 0),
        "series.invert_self_s": self_s.get("series.invert", 0.0),
        "series.int_pow_calls": calls.get("series.int_pow", 0),
        "series.euler_product_calls": calls.get("series.euler_product", 0),
        "series.euler_product_s": _outermost(spans, ("series.euler_product",)),
        "series.exp_self_s": self_s.get("series.exp", 0.0),
        "series.coeff_max_bits": counters["coeff_max_bits"],
        "engine.hilb_series_calls": calls.get("engine.hilb_series", 0),
        "engine.hilb_series_s": _outermost(spans, ("engine.hilb_series",)),
        "engine.sym_calls": calls.get("engine.sym_power_twisted_hodge", 0),
        "engine.sym_distinct": counters["sym_distinct"],
        "engine.super_sym_series_s": _outermost(spans, ("engine.super_sym_series",)),
        "engine.hilb_via_partitions_self_s": self_s.get("engine.hilb_via_partitions", 0.0),
        "partitions.calls": sum(calls[n] for n in partition_names),
        "partitions.self_s": sum(self_s[n] for n in partition_names),
        "partitions.compositions": counters["compositions"],
        "engine.chi_y_exp_s": _outermost(spans, ("engine.chi_y_exp",)),
        "engine.nested_via_strata_s": _outermost(spans, ("engine.nested_via_strata",)),
        "engine.hh_s": _outermost(spans, HH_SPANS),
        "oracles.naive_mul_s": _outermost(spans, ("oracles.naive_mul",)),
        "oracles.super_sym_multiset_s": _outermost(spans, ("oracles.super_sym_multiset",)),
    }


# Metrics combined over a sequence by max or median instead of a sum.
MAX_METRICS = ("series.coeff_max_bits",)
MEDIAN_METRICS = ("cli.import_ms",)


def sequence_metrics(per_command: list[dict[str, float]]) -> dict[str, float]:
    out = {}
    for name in per_command[0]:
        values = [m[name] for m in per_command]
        if name in MAX_METRICS:
            out[name] = max(values)
        elif name in MEDIAN_METRICS:
            out[name] = median(values)
        else:
            out[name] = sum(values)
    calls = out["engine.sym_calls"]
    out["engine.sym_useful_ratio"] = out["engine.sym_distinct"] / calls if calls else 0.0
    return out


def unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("_ratio"):
        return "1"
    return "count"
