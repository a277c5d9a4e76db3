"""Reference timings of the acceptance criteria that the workloads mirror.

    python3 perfbench/validate_times.py

Runs ``qmcs.validate.validate_suite`` once for criteria 4, 5, 8 and 10, with
BLAS pinned as in ``run.py``, and prints ``validate.criterion_<n>.s <value> s``
for each, then one JSON object. These are reference numbers with no bound.
They are not metrics of ``run.py``: one call takes about three minutes,
longer than a single benchmark run may last.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CRITERIA = "4,5,8,10"


def main() -> int:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    from run import blas_env

    os.environ.update(blas_env())
    from qmcs.validate import validate_suite

    report = validate_suite(CRITERIA)
    metrics = {f"validate.criterion_{e['id']}.s": e["seconds"]
               for e in report["criteria"]}
    for name, value in metrics.items():
        print(f"{name} {value} s")
    print(json.dumps({"ok": report["ok"], "metrics": metrics}))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
