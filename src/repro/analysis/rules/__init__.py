"""The codified-invariant rule catalog of the ``repro`` linter.

Each rule is a small, stateless object with a stable ``code``
(``REPnnn``), a slug ``name`` and a one-line ``summary``, plus a
``check(module)`` generator over one parsed
:class:`~repro.analysis.astlint.ModuleUnderLint`.  The catalog below is
the single registration point: ``repro lint`` runs exactly these, and
the README rule table is generated from the same metadata.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.astlint import Rule
from repro.analysis.rules.determinism import (
    UnseededRandomnessRule,
    WallClockRule,
)
from repro.analysis.rules.exports import ExportContractRule
from repro.analysis.rules.hygiene import (
    BareExceptRule,
    MutableDefaultRule,
    PrintInLibraryRule,
)
from repro.analysis.rules.isolation import (
    MultiprocessingIsolationRule,
    ServiceIsolationRule,
)
from repro.analysis.rules.resilience import SleepRetryLoopRule
from repro.analysis.rules.topics import RetainedTopicRule

from repro.errors import ValidationError

#: Every codified rule, in catalog (code) order.
RULE_TYPES: tuple[type, ...] = (
    MultiprocessingIsolationRule,  # REP001
    UnseededRandomnessRule,        # REP002
    WallClockRule,                 # REP003
    MutableDefaultRule,            # REP004
    BareExceptRule,                # REP005
    ExportContractRule,            # REP006
    RetainedTopicRule,             # REP007
    PrintInLibraryRule,            # REP008
    ServiceIsolationRule,          # REP009
    SleepRetryLoopRule,            # REP011
)


def default_rules() -> tuple[Rule, ...]:
    """Fresh instances of the full rule catalog."""
    return tuple(rule_type() for rule_type in RULE_TYPES)


def rules_by_code(codes: Sequence[str] | None = None) -> tuple[Rule, ...]:
    """The catalog filtered to ``codes`` (all rules when ``None``).

    Raises:
        ValidationError: on a code the catalog does not know.
    """
    rules = default_rules()
    if codes is None:
        return rules
    known = {rule.code: rule for rule in rules}
    unknown = [code for code in codes if code not in known]
    if unknown:
        raise ValidationError(
            f"unknown rule code(s) {unknown} (known: {sorted(known)})"
        )
    return tuple(known[code] for code in codes)


def rule_catalog() -> tuple[dict[str, str], ...]:
    """``(code, name, summary)`` metadata rows for reports and docs."""
    return tuple(
        {"code": rule.code, "name": rule.name, "summary": rule.summary}
        for rule in default_rules()
    )


__all__ = [
    "BareExceptRule",
    "ExportContractRule",
    "MultiprocessingIsolationRule",
    "MutableDefaultRule",
    "PrintInLibraryRule",
    "RULE_TYPES",
    "RetainedTopicRule",
    "ServiceIsolationRule",
    "SleepRetryLoopRule",
    "UnseededRandomnessRule",
    "WallClockRule",
    "default_rules",
    "rule_catalog",
    "rules_by_code",
]
