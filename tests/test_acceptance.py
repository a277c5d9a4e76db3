"""Acceptance gate: one test per shipped criterion.

Each test runs the corresponding check from qmcs.validate, prints a single
PASS/FAIL line with the measured details, and asserts the result.  The
checks are deterministic (fixed seeds), so failures are reproducible.
"""

import time

import pytest

from qmcs.validate import CRITERIA

_BY_ID = {cid: (name, fn) for cid, name, fn in CRITERIA}

# The recorded details of the seeded coverage criteria.  Each floor is
# p - 3 sqrt(p (1 - p) / n) for its trial count n, so a changed trial count
# or floor shows here even while the criterion still passes; a changed seed
# shows only where it moves a rate.  Fitted slopes (least squares through
# LAPACK) are compared to 1e-12.
DETAILS = {
    2: {"floor": 0.8715395010584847, "rate": 1.0, "t": 509},
    3: {"error_bound": 0.2, "floor": 0.7620526680779794, "mean": 0.125,
        "rate": 1.0},
    4: {"classical_slope": 1.9999999999999996, "floor": 0.5666666666666667,
        "quantum_slope": 1.2512006392611548, "rates": [1.0] * 5,
        "reflections": [11480508.0, 26921346.0, 78916824.0, 211676382.0,
                        477226728.0],
        "sweep": [0.1, 0.05, 0.02, 0.01, 0.005]},
    5: {"floor": 0.7089208081871126, "rate": 1.0},
    8: {"classical_slope": 1.9999999999999998, "floor": 0.675,
        "quantum_slope": 1.2942001142050341,
        "quantum_totals": [88455276, 218744712, 530460420, 1309570200],
        "rate_ising": 1.0, "rate_matching": 1.0},
    10: {"floor": 0.8363603896932108, "rates": [1.0, 1.0, 1.0],
         "slope": 1.6594227964586767, "stability_violations": 0},
    11: {"T_mean": 547.0, "bound": 0.37094263469532934,
         "perturbed_failure_rate": 0.0},
}


def _pinned(details):
    return {key: pytest.approx(value, rel=1e-12) if key.endswith("slope")
            else value for key, value in details.items()}


@pytest.mark.parametrize("cid", sorted(_BY_ID), ids=[
    f"criterion_{cid:02d}" for cid in sorted(_BY_ID)])
def test_criterion(cid, capsys):
    name, fn = _BY_ID[cid]
    start = time.time()
    passed, details = fn()
    verdict = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"\ncriterion {cid:2d} [{verdict}] {name} "
              f"({time.time() - start:.1f}s): {details}")
    assert passed, f"criterion {cid} ({name}) failed: {details}"
    if cid in DETAILS:
        assert details == _pinned(DETAILS[cid])
