"""Set-up probe: a fresh process imports glacier_dyn.cli and loads and
validates parameter files, then prints the seconds that took.

    python3 probe.py <src dir> <params.json>...
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import json  # noqa: E402

import glacier_dyn.cli  # noqa: E402,F401
from glacier_dyn.model import ModelParams, PhysicalParams, nondimensionalize  # noqa: E402

for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if "physical" in raw:
        nondimensionalize(PhysicalParams.from_dict(raw["physical"]))
    if "model" in raw:
        ModelParams.from_dict(raw["model"])
print(repr(time.perf_counter() - t0))
