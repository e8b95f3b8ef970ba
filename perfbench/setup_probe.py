"""Cold set-up probe: one fresh interpreter from start to "ready".

Ready means the engine and API are imported, the stock registry has
generated its variants and both use cases' analysis pipelines (TARA,
HARA, derivation, audits) are built.  Prints one JSON line with the
phase times measured inside the interpreter, then exits.  The parent
times the whole thing from spawn to that line.

Run from the repository root: ``python3 perfbench/setup_probe.py``.
"""

import json
import sys
import time
from pathlib import Path

started = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import Workspace  # noqa: E402
from repro.engine import default_registry, run_campaign  # noqa: E402, F401

imported = time.perf_counter()
variant_count = len(default_registry().variants())
registry_ready = time.perf_counter()
workspace = Workspace()
for use_case in ("uc1", "uc2"):
    workspace.pipeline(use_case)
pipeline_ready = time.perf_counter()

print(
    json.dumps(
        {
            "import_s": imported - started,
            "registry_s": registry_ready - imported,
            "pipeline_s": pipeline_ready - registry_ready,
            "variants": variant_count,
        }
    ),
    flush=True,
)
