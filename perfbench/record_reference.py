"""Record every grid cell's excess risk for every input slot and size.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/record_reference.py [workload ...]

Run from the root of a checkout. Named workloads are recorded again and the
others kept; with no names, every grid workload is recorded. The benchmark compares each cell's risk
with this record, so a change that moves a draw, or any risk by more than
the last digits, shows as a failed cell until the record is taken again
(and the change says so).
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

from workloads import REFERENCE_PATH, SIZES, SLOTS, WORKLOADS, GridWorkload


def main(names: list) -> int:
    reference = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    for name, cls in WORKLOADS.items():
        if not issubclass(cls, GridWorkload) or (names and name not in names):
            continue
        reference[name] = {}
        for size in SIZES:
            for slot in range(SLOTS):
                with tempfile.TemporaryDirectory(dir=REFERENCE_PATH.parent) as tmp:
                    workload = cls(size, slot, Path(tmp))
                    result = workload.run()
                rows = []
                for op, ci, spec, n, rep in workload.cells():
                    risk = result.records[op]["risk"]
                    if not math.isfinite(risk) or risk < 0.0:
                        raise RuntimeError(f"{name}/{size}/{slot}: cell {op} has risk {risk!r}")
                    rows.append([ci, spec.name, n, rep, repr(risk)])
                reference.setdefault(name, {}).setdefault(size, {})[str(slot)] = rows
                print(f"{name} {size} slot {slot}: {len(rows)} cells", file=sys.stderr)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
