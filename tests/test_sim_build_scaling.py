"""Deterministic scaling gate for scenario build.

Building an N-vehicle convoy must cost O(N) dispatch-plan builds: every
vehicle subscribes and every ECU/control pipeline probes its own topics,
so a bus that re-plans all topics on each subscribe is O(N^2).  The gate
counts ``EventBus._build_plan`` calls, which is exact and independent of
host speed.
"""

import pytest

from repro.sim.events import TRACE_COUNTS, TRACE_FULL, EventBus
from repro.sim.scenarios import FleetConstructionSiteScenario


def _fleet(size: int, trace_mode: str) -> FleetConstructionSiteScenario:
    # The lead vehicle keeps fixed distances to RSU and zone; the convoy
    # grows backwards (the geometry the benchmark's rescaled fleets use).
    lead_m = (size - 1) * 40.0
    return FleetConstructionSiteScenario(
        fleet_size=size,
        headway_m=40.0,
        zone_start_m=lead_m + 600.0,
        zone_end_m=lead_m + 700.0,
        rsu_position_m=lead_m + 399.0,
        rsu_range_m=500.0,
        road_length_m=lead_m + 3000.0,
        trace_mode=trace_mode,
    )


def _plan_builds(monkeypatch, size: int, trace_mode: str) -> int:
    calls = 0
    build_plan = EventBus._build_plan

    def counted(self, topic):
        nonlocal calls
        calls += 1
        return build_plan(self, topic)

    with monkeypatch.context() as patch:
        patch.setattr(EventBus, "_build_plan", counted)
        _fleet(size, trace_mode)
    return calls


@pytest.mark.parametrize("trace_mode", [TRACE_FULL, TRACE_COUNTS])
def test_fleet_build_plans_grow_linearly(monkeypatch, trace_mode):
    small = _plan_builds(monkeypatch, 32, trace_mode)
    large = _plan_builds(monkeypatch, 128, trace_mode)
    assert small > 0
    # 4x the vehicles may cost 4x the plan builds, plus a few shared
    # topics; a quadratic build costs ~16x.
    assert large <= 4 * small + 8, (small, large)
