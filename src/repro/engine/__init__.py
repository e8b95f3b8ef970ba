"""The scenario engine: one kernel, a declarative registry, a campaign runner.

The seed reproduction hard-coded exactly two SUT configurations and ran
every benchmark serially.  This package is the architectural seam that
replaces that:

* :mod:`repro.engine.kernel` -- a single discrete-event kernel
  (:class:`SimKernel`) bundling the clock, event bus, keystore, world and
  all communication media behind the :class:`~repro.sim.network.Medium`
  interface, plus :class:`KernelScenario`, the base class every SUT
  assembly builds on;
* :mod:`repro.engine.spec` -- declarative :class:`ScenarioSpec` /
  :class:`VariantSpec` data objects: a scenario is a dotted factory path
  plus parameters, a variant is a pure-data parameter override (and is
  therefore trivially picklable for worker processes);
* :mod:`repro.engine.registry` -- the :class:`ScenarioRegistry` holding
  the stock UC1/UC2 specs and the parametric variant families (control
  ablations, attacker timing, traffic density, zone geometry);
* :mod:`repro.engine.attacks` -- the parametric attack catalog variant
  families arm injectors from;
* :mod:`repro.engine.campaign` -- the batch runner fanning
  scenario x attack x control combinations across any
  :mod:`repro.runtime` execution backend (serial, thread, process),
  streaming outcomes and aggregating verdicts;
* :mod:`repro.engine.batch` -- family batching: every campaign runs as
  a :class:`BatchPlan` of same-``(scenario, family)`` batches, sized by
  a :class:`~repro.runtime.BatchedBackend` (batch size 1, the plain
  case, for any other backend).  Batches of two or more build shared
  setup (factory resolution, bound attacks) and enter the shared MAC
  memo once per batch; one-member batches share nothing.

Submodules are imported lazily (PEP 562) so that
``repro.sim.scenarios`` can import :mod:`repro.engine.kernel` without
pulling the registry (which needs the scenarios) back in.
"""

from __future__ import annotations

import importlib
from typing import Any

_EXPORTS = {
    "SimKernel": "repro.engine.kernel",
    "KernelScenario": "repro.engine.kernel",
    "ScenarioResult": "repro.engine.kernel",
    "ParamItems": "repro.engine.spec",
    "ScenarioSpec": "repro.engine.spec",
    "VariantSpec": "repro.engine.spec",
    "factory_accepts": "repro.engine.spec",
    "freeze_params": "repro.engine.spec",
    "resolve_factory": "repro.engine.spec",
    "thaw_params": "repro.engine.spec",
    "BOUND_ATTACKS": "repro.engine.registry",
    "FamilyGenerator": "repro.engine.registry",
    "ScenarioRegistry": "repro.engine.registry",
    "UC1_FLEET_SCENARIO": "repro.engine.registry",
    "UC1_SCENARIO": "repro.engine.registry",
    "UC2_SCENARIO": "repro.engine.registry",
    "apply_topology_overrides": "repro.engine.registry",
    "default_registry": "repro.engine.registry",
    "BatchContext": "repro.engine.batch",
    "BatchPlan": "repro.engine.batch",
    "VariantBatch": "repro.engine.batch",
    "execute_batch": "repro.engine.batch",
    "run_batch_payload": "repro.engine.batch",
    "CAMPAIGN_TRACE_MODE": "repro.engine.campaign",
    "CampaignMemo": "repro.engine.campaign",
    "CampaignRunner": "repro.engine.campaign",
    "CampaignResult": "repro.engine.campaign",
    "ERROR_VERDICT": "repro.engine.campaign",
    "VariantOutcome": "repro.engine.campaign",
    "error_outcome": "repro.engine.campaign",
    "execute_variant": "repro.engine.campaign",
    "iter_campaign": "repro.engine.campaign",
    "run_campaign": "repro.engine.campaign",
    "ATTACK_CATALOG": "repro.engine.attacks",
    "arm_catalog_attack": "repro.engine.attacks",
    "arm_flood": "repro.engine.attacks",
    "arm_forge_keys": "repro.engine.attacks",
    "arm_jam": "repro.engine.attacks",
    "arm_owner_cycle": "repro.engine.attacks",
    "arm_replay_open": "repro.engine.attacks",
    "arm_spoof_speed_limit": "repro.engine.attacks",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
