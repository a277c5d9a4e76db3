"""One benchmark process: set up a workload, run it as a closed loop, check it.

Run by ``run.py``, never by hand. The worker imports ``qmcs`` from the
checkout's ``src/``, builds the workload (this is the set-up users pay on
every call), then runs one op at a time, in rounds, until ``--seconds`` of
op time at reference speed have passed and the current round is complete. Between ops it times the reference
kernel of ``speed.py``, and it reports every time both as measured (wall)
and at reference speed. Outputs are checked after the loop, so the checks
cost no measured time. The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from speed import REFERENCE_S, reference_seconds

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = Path(__file__).resolve().parent / "out"
CALIBRATE_EVERY_S = 0.25  # time the reference kernel after this much work
WALL_CAP = 1.5  # stop at a round boundary after this many times --seconds


def at_reference_speed(records, calibrations):
    """Each op's seconds, divided by the machine speed measured around it.

    The speed is the mean of the reference-kernel times of the calibrations
    just before and just after the op.
    """
    times = [t for t, _ in calibrations]
    op_s = []
    for _, t0, t1, _ in records:
        j = bisect.bisect_right(times, t0) - 1
        ref = 0.5 * (calibrations[j][1] + calibrations[j + 1][1])
        op_s.append((t1 - t0) * REFERENCE_S / ref)
    return op_s


def miss_ceiling(confidence: float, n: int) -> float:
    """Largest miss share allowed: 1 - confidence plus 3 binomial sd (as validate)."""
    return (1.0 - confidence) + 3.0 * math.sqrt(confidence * (1.0 - confidence) / n)


def check(records):
    """Count failed ops and misses, and list every failed output check.

    An op fails when it raised, returned a non-finite value, failed its own
    ledger check, or metered a ledger that differs from the other ops of its
    class (each class's counts are fixed by its parameters). A failed op
    also counts as a miss.
    """
    ledgers, classes = {}, {}
    for cls, *_, res in records:
        ok = res is not None and math.isfinite(res.value) and res.ledger_ok
        if ok and ledgers.setdefault(cls, res.ledger) != res.ledger:
            ok = False
        stats = classes.setdefault(cls, [0, 0, 0, res.confidence if res else 1.0])
        stats[0] += not ok
        stats[1] += not ok or not res.hit
        stats[2] += 1
    problems = []
    for cls, (failed, missed, n, conf) in classes.items():
        if failed:
            problems.append(f"class {cls!r}: {failed} of {n} ops failed")
        if missed / n > miss_ceiling(conf, n):
            problems.append(f"class {cls!r}: missed {missed} of {n}")
    failed = sum(stats[0] for stats in classes.values())
    misses = sum(stats[1] for stats in classes.values())
    return failed, misses, problems


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() when the launcher started us")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import scipy
    import qmcs

    if Path(qmcs.__file__).resolve().parent != ROOT / "src" / "qmcs":
        raise SystemExit(f"qmcs imported from {qmcs.__file__}, not the checkout")
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    setup_wall_s = time.monotonic() - args.spawned_at
    calibrations = [(time.perf_counter(), reference_seconds())]
    setup_s = setup_wall_s * REFERENCE_S / calibrations[0][1]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    records = []  # (op class, start, end, Result or None)
    start = time.perf_counter()
    measured = 0.0  # op seconds so far, at reference speed (for stopping)
    r = 0
    while True:
        for cls, op in workload.round_ops(args.seed, r):
            i = len(records)
            rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(i,)))
            if tracer:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                res = workload.run(op, rng)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                res = None
            t1 = time.perf_counter()
            records.append((cls, t0, t1, res))
            measured += (t1 - t0) * REFERENCE_S / calibrations[-1][1]
            if t1 - calibrations[-1][0] >= CALIBRATE_EVERY_S:
                calibrations.append((time.perf_counter(), reference_seconds()))
        r += 1
        if (measured >= args.seconds
                or time.perf_counter() - start >= WALL_CAP * args.seconds):
            break
    calibrations.append((time.perf_counter(), reference_seconds()))
    op_wall_s = [t1 - t0 for _, t0, t1, _ in records]
    op_s = at_reference_speed(records, calibrations)

    failed, misses, problems = check(records)
    totals = qmcs.QueryLedger()
    for *_, res in records:
        if res is not None:
            totals.merge(res.ledger)
    out = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "rounds": r,
        "attempted": len(records),
        "failed": failed,
        "misses": misses,
        "op_s": op_s,
        "op_wall_s": op_wall_s,
        "speed": statistics.median(REFERENCE_S / ref for _, ref in calibrations),
        "ledger": totals.as_dict(),
        "quantum": totals.total_quantum(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "problems": problems,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer:
        out["layers"] = tracer.layer_metrics()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}.jsonl")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
