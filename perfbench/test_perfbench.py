"""Tests of the benchmark's own code (no workload is run).

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench``.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from perfbench.measure import (
    DIGEST_EXCLUDED,
    METRIC_NAME,
    TAIL_LADDER,
    Span,
    Tracer,
    frame_counts,
    median,
    outcome_digest,
    percentile,
    self_times,
    summarize,
    tail_percentile,
)
from perfbench.workloads import END_TO_END, PER_LAYER
from repro.engine.campaign import VariantOutcome

ROOT = Path(__file__).resolve().parent.parent


# -- percentile rule -----------------------------------------------------------

@pytest.mark.parametrize(
    "count, expected",
    [(1, None), (99, None), (100, 90.0), (199, 90.0), (200, 95.0),
     (10000, 95.0)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


@pytest.mark.parametrize("count", [100, 150, 199, 200, 333])
def test_tail_value_has_at_least_ten_samples_beyond_it(count):
    values = list(range(count))
    summary = summarize(values)
    beyond = sum(1 for v in values if v > summary["tail"])
    assert beyond >= 10
    higher = [p for p in TAIL_LADDER if p > summary["tail_pct"]]
    for pct in higher:
        assert sum(1 for v in values if v > percentile(values, pct)) < 10


def test_median_and_nearest_rank_percentile():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5
    assert percentile(list(range(1, 201)), 95.0) == 190
    assert summarize([5.0] * 50) == {"p50": 5.0, "tail_pct": None, "tail": None}


# -- spans ---------------------------------------------------------------------

def test_self_time_subtracts_children_once():
    spans = [
        Span("root", 0.0, 10.0, None, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("b", 3.0, 6.0, 0, "r"),  # overlaps a
        Span("a.inner", 2.0, 3.0, 1, "r"),
        Span("late", 9.0, 12.0, 0, "r"),  # runs past its parent
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_tracer_nests_by_call_stack_and_inherits_request():
    tracer = Tracer()
    with tracer.span("outer", "v1"):
        with tracer.span("inner"):
            pass
    with tracer.span("next"):
        pass
    outer, inner, nxt = tracer.spans
    assert (outer.parent, inner.parent, nxt.parent) == (None, 0, None)
    assert inner.request == "v1" and nxt.request is None
    records = tracer.to_json()
    assert {"name", "start", "end", "parent", "request", "self"} <= set(records[0])
    assert records[0]["self"] <= outer.duration


# -- metric names --------------------------------------------------------------

def test_metric_names_follow_the_naming_rule_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == END_TO_END
    assert declared_layer == PER_LAYER
    for name in [*END_TO_END, *PER_LAYER]:
        assert METRIC_NAME.fullmatch(name), name
    assert not set(END_TO_END) & set(PER_LAYER)


# -- outcome digest ------------------------------------------------------------

def _outcome(**changes):
    base = VariantOutcome(
        variant_id="uc1/x/y",
        scenario="uc1-construction-site",
        family="x",
        attack=None,
        verdict="ATTACK_FAILED",
        violated_goals=(),
        violations=((1.0, "SG01", "detail"),),
        detections=(("obu", 2),),
        detections_by_control=(("obu", (("sender-auth", 2),)),),
        stats={"v2x": {"sent": 3, "delivered": 2}},
        duration_ms=100.0,
        wall_time_s=0.5,
        notes="n",
        from_cache=False,
    )
    return dataclasses.replace(base, **changes)


_CHANGED = {
    "variant_id": "uc1/x/z",
    "scenario": "uc2-keyless-entry",
    "family": "z",
    "attack": "jam",
    "verdict": "ATTACK_SUCCEEDED",
    "violated_goals": ("SG01",),
    "violations": ((2.0, "SG01", "detail"),),
    "detections": (("obu", 3),),
    "detections_by_control": (("obu", (("sender-auth", 3),)),),
    "stats": {"v2x": {"sent": 4, "delivered": 2}},
    "duration_ms": 200.0,
    "wall_time_s": 9.0,
    "notes": "m",
    "from_cache": True,
}


def test_changes_cover_every_outcome_field():
    assert set(_CHANGED) == {f.name for f in dataclasses.fields(VariantOutcome)}


@pytest.mark.parametrize("field", sorted(_CHANGED))
def test_digest_excludes_only_wall_time_and_cache_flag(field):
    moved = outcome_digest(_outcome(**{field: _CHANGED[field]})) != outcome_digest(
        _outcome()
    )
    assert moved == (field not in DIGEST_EXCLUDED)


def test_digest_survives_the_wire_form():
    outcome = _outcome()
    wire = VariantOutcome.from_payload(json.loads(json.dumps(dataclasses.asdict(outcome))))
    assert outcome_digest(wire) == outcome_digest(outcome)


def test_frame_counts_reads_channels_and_controls():
    stats = {
        "v2x": {"sent": 10, "delivered": 8, "dropped": 0},
        "obu": {"processed": 3, "rejected": 5},
        "warnings_shown": 1,
    }
    assert frame_counts(stats) == (10, 8, 5)
