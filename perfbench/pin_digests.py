"""Regenerate ``perfbench/data/outcome_digests.json``.

Executes every registry variant and every fleet-scale variant serially,
checks the registry verdicts against ``tests/data/golden_verdicts.json``
and writes one digest per outcome.  Run it only on a commit whose
outcomes are known to be right, from the repository root::

    python3 perfbench/pin_digests.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import inputs  # noqa: E402
from perfbench.measure import outcome_digest  # noqa: E402
from perfbench.workloads import DIGESTS, GOLDEN  # noqa: E402
from repro.engine import default_registry, run_campaign  # noqa: E402


def main() -> int:
    golden = json.loads(GOLDEN.read_text())
    tables = {}
    for table, variants in (
        ("registry", default_registry().variants()),
        ("fleet", [v for size in inputs.FLEET_SIZES for v in inputs.fleet_variants(size)]),
    ):
        result = run_campaign(variants, backend="serial")
        tables[table] = {o.variant_id: outcome_digest(o) for o in result.outcomes}
        if table == "registry":
            wrong = [
                o.variant_id
                for o in result.outcomes
                if golden.get(o.variant_id) != [o.verdict, list(o.violated_goals)]
            ]
            if wrong:
                print(f"verdicts differ from golden: {wrong}", file=sys.stderr)
                return 1
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(tables, indent=1, sort_keys=True) + "\n")
    print(f"pinned {sum(map(len, tables.values()))} digests to {DIGESTS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
