"""Workload inputs, generated from the benchmark seed alone.

The program receives only what these functions return: variant lists in
a seeded order, rescaled fleet variants, and the daemon's stream of warm
and fresh submissions.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Iterator

from repro.analysis.speccheck import check_registry
from repro.engine import default_registry
from repro.engine.registry import ScenarioRegistry
from repro.engine.spec import VariantSpec, freeze_params

#: Convoy sizes of the fleet-scale workload.
FLEET_SIZES = (256, 1024)

#: How often one round runs each size's set, in this order.  An n=1024
#: set takes as long as seven n=256 sets, and the median of three n=256
#: runs a round holds that figure as steady as the single n=1024 one.
#: The largest set runs first so that the round's peak memory does not
#: depend on how fragmented smaller runs left the heap.
FLEET_ROUND = ((1024, 1), (256, 3))

#: Registry families the daemon's warm pool is drawn from.  Flood and
#: bound-attack families are left out: one of their variants costs as
#: much as hundreds of these, and the daemon workload is about the
#: service layer, not the simulator.
WARM_FAMILIES = (
    "baseline",
    "attacker-timing",
    "traffic-density",
    "zone-geometry",
    "coverage",
)

#: Timing parameters a fresh daemon variant may perturb, by location.
TIMING_ATTACK_PARAMS = ("launch_ms", "duration_ms", "replay_at_ms")
TIMING_PARAMS = ("rsu_period_ms",)

#: Variants per daemon submission.
SUBMISSION_SIZE = 4

#: Share of daemon submissions that resubmit already-memoised variants.
WARM_SHARE = 0.8


def shuffled(items, rng: random.Random) -> list:
    order = list(items)
    rng.shuffle(order)
    return order


def registry_variants(seed: int) -> list[VariantSpec]:
    """All registry variants in a seed-shuffled order."""
    return shuffled(default_registry().variants(), random.Random(seed))


def fleet_variants(size: int) -> tuple[VariantSpec, ...]:
    """The n=8 ``fleet`` baseline and ``ad14-jam`` variants at ``size``.

    The lead vehicle keeps its n=8 distances to the RSU and the zone and
    the convoy grows backwards, so verdicts stay comparable across
    sizes.  Flood variants are excluded: this workload bypasses the
    flood path on purpose.
    """
    lead_m = (size - 1) * 40.0
    geometry = {
        "fleet_size": size,
        "headway_m": 40.0,
        "zone_start_m": lead_m + 600.0,
        "zone_end_m": lead_m + 700.0,
        "rsu_position_m": lead_m + 399.0,
        "rsu_range_m": 500.0,
        "road_length_m": lead_m + 3000.0,
    }
    return tuple(
        dataclasses.replace(
            variant,
            variant_id=f"{variant.variant_id}@n{size}",
            params=freeze_params({**variant.params_dict(), **geometry}),
        )
        for variant in default_registry().variants(family="fleet")
        if variant.params_dict().get("fleet_size") == 8
        and variant.attack in (None, "jam")
    )


def fleet_rounds(seed: int) -> Iterator[list[tuple[int, list[VariantSpec]]]]:
    """Endless rounds of ``(size, variant set)`` runs, each set in a seeded order."""
    rng = random.Random(seed)
    sets = {size: fleet_variants(size) for size in FLEET_SIZES}
    while True:
        yield [
            (size, shuffled(sets[size], rng))
            for size, repeats in FLEET_ROUND
            for _ in range(repeats)
        ]


def warm_pool() -> tuple[VariantSpec, ...]:
    """Registry variants the daemon memoises before timing starts."""
    registry = default_registry()
    return tuple(
        variant
        for family in WARM_FAMILIES
        for variant in registry.variants(family=family)
        if not variant.uses_bound_attack
    )


def _cold_bases() -> tuple[VariantSpec, ...]:
    registry = default_registry()
    bases = []
    for variant in registry.variants(family="attacker-timing") + registry.variants(
        family="traffic-density"
    ):
        if set(variant.attack_params_dict()) & set(TIMING_ATTACK_PARAMS) or set(
            variant.params_dict()
        ) & set(TIMING_PARAMS):
            bases.append(variant)
    return tuple(bases)


class FreshVariants:
    """Seeded perturbations of registry timing parameters, checked valid.

    Each fresh variant copies a registry variant and scales one of its
    timing parameters by a seeded factor in [0.7, 1.3].  Candidates are
    generated in batches and validated by the static spec checker
    (``repro.analysis.speccheck.check_registry``) against a registry
    holding the stock scenario specs; a candidate with any finding is
    discarded before it can be submitted.
    """

    BATCH = 64

    def __init__(self, seed: int, prefix: str) -> None:
        self._rng = random.Random(seed)
        self._prefix = prefix
        self._bases = _cold_bases()
        self._ready: list[VariantSpec] = []
        self._serial = 0

    def take(self, count: int) -> list[VariantSpec]:
        while len(self._ready) < count:
            self._ready.extend(self._validated(self._candidates()))
        taken, self._ready = self._ready[:count], self._ready[count:]
        return taken

    def _candidates(self) -> list[VariantSpec]:
        out = []
        for _ in range(self.BATCH):
            base = self._rng.choice(self._bases)
            params = base.params_dict()
            attack_params = base.attack_params_dict()
            keys = [("a", k) for k in TIMING_ATTACK_PARAMS if k in attack_params]
            keys += [("p", k) for k in TIMING_PARAMS if k in params]
            where, key = self._rng.choice(keys)
            target = attack_params if where == "a" else params
            target[key] = round(target[key] * self._rng.uniform(0.7, 1.3), 1)
            self._serial += 1
            out.append(
                dataclasses.replace(
                    base,
                    variant_id=f"{self._prefix}/{self._serial}",
                    family="perfbench-fresh",
                    params=freeze_params(params),
                    attack_params=freeze_params(attack_params),
                    description=f"{base.variant_id} with {key} perturbed",
                )
            )
        return out

    def _validated(self, candidates: list[VariantSpec]) -> list[VariantSpec]:
        stock = default_registry()
        registry = ScenarioRegistry()
        by_scenario: dict[str, list[VariantSpec]] = {}
        for variant in candidates:
            by_scenario.setdefault(variant.scenario, []).append(variant)
        for name, variants in by_scenario.items():
            registry.register(stock.get(name))
            registry.register_family(
                name, "perfbench-fresh", lambda _spec, vs=tuple(variants): vs
            )
        bad = {finding.symbol for finding in check_registry(registry)}
        return [v for v in candidates if v.variant_id not in bad]


def daemon_stream(seed: int, pool: tuple[VariantSpec, ...], prefix: str):
    """Endless ``(kind, variants)`` submissions: ~4 in 5 warm, the rest fresh."""
    rng = random.Random(seed)
    fresh = FreshVariants(rng.randrange(2**32), prefix)
    while True:
        if rng.random() < WARM_SHARE:
            yield "warm", rng.sample(pool, SUBMISSION_SIZE)
        else:
            yield "cold", fresh.take(SUBMISSION_SIZE)
