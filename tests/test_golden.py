"""Seeded outputs of every estimator, pinned to exact floats and ledgers.

A change that keeps RNG consumption and arithmetic order the same leaves
every value below byte-identical; one that moves a value must say which one
and why.  Criterion 12 only checks that two runs agree with each other,
this test checks that they agree with the recorded history.
"""

import contextlib
import hashlib
import io
import json
import zlib

import numpy as np
import pytest

from qmcs.cli import main
from qmcs.gibbs import Graph, ising_model, matching_model
from qmcs.mean import (classical_mean_chebyshev, estimate_mean_bounded,
                       estimate_mean_l2, estimate_mean_relative,
                       estimate_mean_variance, t_for_additive_error)
from qmcs.outcome import QueryLedger, make_distribution
from qmcs.partition import (build_schedule, classical_baseline,
                            estimate_partition)
from qmcs.tvd import estimate_tvd

K2 = Graph(2, ((0, 1),))
C4 = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))

BERNOULLI = make_distribution([(0.0, 0.75), (1.0, 0.25)])
HEAVY = make_distribution([(0.0, 63 / 64), (8.0, 1 / 64)])
THREE_POINT = make_distribution([(4.0, 0.25), (5.0, 0.5), (6.0, 0.25)])
TWO_POINT = make_distribution([(1.0, 0.5), (3.0, 0.5)])


def _k2():
    m = ising_model(K2)
    return m, build_schedule(m, 1.5, "forward")


def _c4_matching():
    m = matching_model(C4)
    return m, build_schedule(m, 2.0, "reversed")


def _partition(model, mode):
    def run(rng, ledger):
        m, s = model()
        return estimate_partition(m, s, 0.2, 0.25, mode, rng, ledger)
    return run


def _baseline(model):
    def run(rng, ledger):
        m, s = model()
        return classical_baseline(m, s, 0.5, rng, ledger)
    return run


CASES = {
    "mean_bounded": lambda rng, led: estimate_mean_bounded(
        BERNOULLI, t_for_additive_error(0.02), 0.1, rng, led),
    "mean_l2": lambda rng, led: estimate_mean_l2(HEAVY, 0.05, rng, led),
    "mean_variance": lambda rng, led: estimate_mean_variance(
        THREE_POINT, 1.0, 0.02, rng, led),
    "mean_relative": lambda rng, led: estimate_mean_relative(
        TWO_POINT, 1.25, 0.05, rng, led),
    "classical_chebyshev": lambda rng, led: classical_mean_chebyshev(
        THREE_POINT, 1.0, 0.05, rng, led),
    "partition_k2_ideal_sampling": _partition(_k2, "ideal_sampling"),
    "partition_k2_walk_idealized": _partition(_k2, "walk_idealized"),
    "partition_k2_walk_exact_sim": _partition(_k2, "walk_exact_sim"),
    "partition_c4m_ideal_sampling": _partition(_c4_matching, "ideal_sampling"),
    "partition_c4m_walk_idealized": _partition(_c4_matching, "walk_idealized"),
    "partition_c4m_walk_exact_sim": _partition(_c4_matching, "walk_exact_sim"),
    "baseline_k2_ideal": _baseline(_k2),
    "baseline_c4m_ideal": _baseline(_c4_matching),
    "tvd_shifted": lambda rng, led: estimate_tvd(
        [0.5, 0.5, 0.0], [0.0, 0.5, 0.5], 0.1, 0.1, rng, led),
    "tvd_dirichlet": lambda rng, led: estimate_tvd(
        np.random.default_rng(7).dirichlet(np.ones(6)),
        np.random.default_rng(8).dirichlet(np.ones(6)), 0.1, 0.1, rng, led),
}


def observe(name, seed):
    """One run's values and ledger; the ledger omits state_copies."""
    result = CASES[name](np.random.default_rng(seed), QueryLedger())
    ledger = {k: v for k, v in result.ledger.as_dict().items()
              if k != "state_copies"}
    if hasattr(result, "z_value"):
        return {"z_value": result.z_value, "ratios": list(result.ratios),
                "ledger": ledger}
    return {"value": result.value, "ledger": ledger}


EXPECTED = {
    'mean_bounded': {
        'value': 0.25535354153303813,
        'ledger': {'a_uses': 3,
                   'a_inv_uses': 3,
                   'reflection_uses': 765,
                   'walk_steps': 0,
                   'classical_samples': 0},
    },
    'mean_l2': {
        'value': 0.1270503615985826,
        'ledger': {'a_uses': 48,
                   'a_inv_uses': 48,
                   'reflection_uses': 40560,
                   'walk_steps': 0,
                   'classical_samples': 0},
    },
    'mean_variance': {
        'value': 5.000051300021829,
        'ledger': {'a_uses': 745,
                   'a_inv_uses': 744,
                   'reflection_uses': 78916824,
                   'walk_steps': 0,
                   'classical_samples': 1},
    },
    'mean_relative': {
        'value': 2.0000409548928006,
        'ledger': {'a_uses': 306,
                   'a_inv_uses': 306,
                   'reflection_uses': 5626422,
                   'walk_steps': 0,
                   'classical_samples': 40},
    },
    'classical_chebyshev': {
        'value': 5.028333333333333,
        'ledger': {'a_uses': 0,
                   'a_inv_uses': 0,
                   'reflection_uses': 0,
                   'walk_steps': 0,
                   'classical_samples': 1200},
    },
    'partition_k2_ideal_sampling': {
        'z_value': 1.9999713070620577,
        'ratios': [0.5858341059577732, 0.8534716939159459],
        'ledger': {'a_uses': 3060,
                   'a_inv_uses': 3060,
                   'reflection_uses': 64636380,
                   'walk_steps': 0,
                   'classical_samples': 480},
    },
    'partition_k2_walk_idealized': {
        'z_value': 1.9998947499443598,
        'ratios': [0.5857888460739652, 0.8535049631569125],
        'ledger': {'a_uses': 3060,
                   'a_inv_uses': 3060,
                   'reflection_uses': 64636380,
                   'walk_steps': 2588129640,
                   'classical_samples': 480},
    },
    'partition_k2_walk_exact_sim': {
        'z_value': 1.9999902209416924,
        'ratios': [0.5858396462351396, 0.8534716939159459],
        'ledger': {'a_uses': 3060,
                   'a_inv_uses': 3060,
                   'reflection_uses': 64636380,
                   'walk_steps': 99284154120,
                   'classical_samples': 480},
    },
    'partition_c4m_ideal_sampling': {
        'z_value': 6.99946123121737,
        'ratios': [3.179377423114797, 1.7341399282336085, 1.269516613216176],
        'ledger': {'a_uses': 7119,
                   'a_inv_uses': 7119,
                   'reflection_uses': 291985785,
                   'walk_steps': 0,
                   'classical_samples': 1344},
    },
    'partition_c4m_walk_idealized': {
        'z_value': 6.999688237033534,
        'ratios': [3.1795395953439116, 1.734107717110611, 1.269516613216176],
        'ledger': {'a_uses': 7119,
                   'a_inv_uses': 7119,
                   'reflection_uses': 291985785,
                   'walk_steps': 12904127208,
                   'classical_samples': 1344},
    },
    'partition_c4m_walk_exact_sim': {
        'z_value': 6.999623932593558,
        'ratios': [3.179519575813675, 1.7341077171106112, 1.2695129437868633],
        'ledger': {'a_uses': 7119,
                   'a_inv_uses': 7119,
                   'reflection_uses': 291985785,
                   'walk_steps': 598043640348,
                   'classical_samples': 1344},
    },
    'baseline_k2_ideal': {
        'z_value': 1.9629904174160169,
        'ratios': [0.5642128145866396, 0.8697916666666666],
        'ledger': {'a_uses': 0,
                   'a_inv_uses': 0,
                   'reflection_uses': 0,
                   'walk_steps': 0,
                   'classical_samples': 384},
    },
    'baseline_c4m_ideal': {
        'z_value': 7.452423280064128,
        'ratios': [3.3288730386739473, 1.7606620390871075, 1.2715231788079469],
        'ledger': {'a_uses': 0,
                   'a_inv_uses': 0,
                   'reflection_uses': 0,
                   'walk_steps': 0,
                   'classical_samples': 1152},
    },
    'tvd_shifted': {
        'value': 0.5076249293164631,
        'ledger': {'a_uses': 3,
                   'a_inv_uses': 3,
                   'reflection_uses': 13306788,
                   'walk_steps': 0,
                   'classical_samples': 621},
    },
    'tvd_dirichlet': {
        'value': 0.47713230500960285,
        'ledger': {'a_uses': 3,
                   'a_inv_uses': 3,
                   'reflection_uses': 18812574,
                   'walk_steps': 0,
                   'classical_samples': 621},
    },
}


def _observe_case(name):
    # each case's seed is the CRC-32 of its name, so adding a case moves none
    return observe(name, zlib.crc32(name.encode()))


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_ledger_unchanged(name):
    # query counts are the paper's claims: a change to RNG use that moves
    # values must still leave every ledger as recorded
    assert _observe_case(name)["ledger"] == EXPECTED[name]["ledger"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_output_unchanged(name):
    assert _observe_case(name) == EXPECTED[name]


# Seeded CLI commands, pinned by the SHA-256 of their exit code and stdout.
# The input files are written fresh for each test, and no output names a path.
CLI_FILES = {
    "bernoulli.json": {"support": [[0.0, 0.75], [1.0, 0.25]]},
    "three_point.json": {"support": [[4.0, 0.25], [5.0, 0.5], [6.0, 0.25]]},
    "two_point.json": {"support": [[1.0, 0.5], [3.0, 0.5]]},
    "at_one.json": {"support": [[1.0, 1.0]]},  # a = 1: t*omega = t/2
    "p.json": {"support": [[0, 0.7], [1, 0.3]]},
    "q.json": {"support": [[1, 0.4], [2, 0.6]]},
    "r.json": {"support": [[2, 0.5], [3, 0.5]]},  # disjoint from p
    "k2.txt": "2 1\n0 1\n",
    "c4.txt": "4 4\n0 1\n1 2\n2 3\n3 0\n",
}
_C4 = {model: ["--model", model, "--graph", "c4.txt"]
       for model in ("ising", "matching")}
CLI_CASES = {
    **{f"mean_{method}": ["mean", "--dist", dist, "--method", method,
                          "--eps", "0.05", "--seed", "7"]
       for method, dist in (("bounded", "bernoulli.json"),
                            ("l2", "bernoulli.json"),
                            ("variance", "three_point.json"),
                            ("relative", "two_point.json"),
                            ("classical", "three_point.json"))},
    **{f"partition_c4_{model}_{mode}": [
        "partition", *_C4[model], "--mode", mode, "--eps", "0.2",
        "--seed", "3"]
       for model in ("ising", "matching")
       for mode in ("ideal_sampling", "walk_idealized", "walk_exact_sim",
                    "classical")},
    "tvd_overlap": ["tvd", "--p", "p.json", "--q", "q.json", "--seed", "5"],
    "tvd_overlap_eps": ["tvd", "--p", "q.json", "--q", "r.json",
                        "--eps", "0.05", "--seed", "11"],
    "schedule_c4_ising": ["schedule", *_C4["ising"]],
    "schedule_c4_matching": ["schedule", *_C4["matching"],
                             "--direction", "reversed"],
    "chain_c4_ising": ["chain", *_C4["ising"], "--beta", "0.5"],
    "chain_c4_matching": ["chain", *_C4["matching"], "--beta", "1.0"],
    "walk_check_k2": ["walk-check", "--model", "ising", "--graph", "k2.txt",
                      "--beta", "0.5"],
    "bench_bounded": ["bench", "--dist", "bernoulli.json", "--method",
                      "bounded", "--sweep", "eps=0.1,0.05", "--trials", "2",
                      "--seed", "9"],
    "model_c4_ising": ["model", *_C4["ising"]],
    "ae_check": ["ae-check", "--a", "0.3", "--t", "100"],
    # half-integer t*omega = 5/2: c = round(5/2) = 2, and the scan's first two
    # outcomes y = 2, 3 carry the same estimate
    "mean_bounded_at_one_t5": ["mean", "--dist", "at_one.json", "--method",
                               "bounded", "--t", "5", "--seed", "7"],
    "tvd_disjoint": ["tvd", "--p", "p.json", "--q", "r.json", "--seed", "5"],
}


def cli_digest(name, root):
    """SHA-256 of one CLI case's exit code and stdout, its files under root."""
    for fname, content in CLI_FILES.items():
        text = content if isinstance(content, str) else json.dumps(content)
        (root / fname).write_text(text)
    argv = [str(root / arg) if arg in CLI_FILES else arg for arg in CLI_CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


CLI_EXPECTED = {
    'ae_check': '40d64aefe751e7d8c601b4de77641f6a085c88768cffcea358055163d9b53a40',
    'bench_bounded': '2579022fee4bad5855f8196f3c6566aed86fb73a582d1760249ebbe1ff79eb9b',
    'chain_c4_ising': '8ad2cdd77a7dd7f03fd5c380fe9d803048549b1150e8979f0751b2b1db9612fd',
    'chain_c4_matching': 'f593f55d45e8b76dda56fc00a883829fcc85ba6f2da200bf13d1d94612e30632',
    'mean_bounded': 'b8c98108fec9a9dc8d87c14851348d044e2f3e16718862d120e94bd159ceddf7',
    'mean_bounded_at_one_t5': '85c939700080441808fed19d5fb8f683a4cea11119bb32d88bcde7d36bf755d1',
    'mean_classical': '2e4668d6656ae919c2f5f24632dba4964861b749787b182560fbcb791b32aa3d',
    'mean_l2': '5e0fc58f8bbd978b292e06fdffef326ee9c86ae5a95d93f54efcca03e448cdfb',
    'mean_relative': '8e1b52fee04e70a16fd33380523717f59d506b49617bf7272b869ee00194db3b',
    'mean_variance': 'b72aed1a9d44ac8345aa32322cd165ab16582e6fa4cd271a6625ea972d13d6f9',
    'model_c4_ising': 'b94205e2924069f5b1eb4f19380b5e9869a2dd5421079ccc0dbaa76e02f064fc',
    'partition_c4_ising_classical': 'a96447a4086ffd010f0969bca26576f12beaa21b1c59910877b11ce567eed257',
    'partition_c4_ising_ideal_sampling': '4e75fc803e80c37c098270f64a40519062551c663f41111f491c36bbd4fb4b79',
    'partition_c4_ising_walk_exact_sim': '491927aff2c1e42ea0356027e9123c381384b98a4545d63a86cfe268eff9ebc0',
    'partition_c4_ising_walk_idealized': 'bcedbbc853bc89ba5e216764f9ac1db5bd384966ea182d145e8854ecae29c01c',
    'partition_c4_matching_classical': 'd62cba478aa510279ba8843fa5fabe5116c35f8b57ef8038ab6a1b18ad844889',
    'partition_c4_matching_ideal_sampling': '03afef164dd6e6948ddab6056b365215efeeadcc31008efd73ec8385d3110fec',
    'partition_c4_matching_walk_exact_sim': 'b4d1b06320170f8fc4229fb3afd62615df7791ac997ad48d16fcc49054c2bf46',
    'partition_c4_matching_walk_idealized': '37a553860ca071449b82913442097fa2d201ff7da0060a4a588054ba96e4523c',
    'schedule_c4_ising': '88094604d9b9ae7ea881a185b9e0cd93ad6fff9537480e06273d64288746eeac',
    'schedule_c4_matching': '506b9a058cec62d281868ffbc69992f58697391b31a89190addd41eb6b998295',
    'tvd_disjoint': '2026b4557d5a3247f86ae2f9a032579426ea9295048cb0b561616a320eb581aa',
    'tvd_overlap': '6dd436688b113dee0fe402bf30883cf1734da700e7a9dc5b4d86e4a2c75e73e7',
    'tvd_overlap_eps': '1042876faf15ca0bb4181ac14fba0212e541f34d47a461c84deab40f01446ff0',
    'walk_check_k2': 'de8576cfdadbca373b60e462f93440b4ca9f91d31362afbbc5b62b2c0d8f675c',
}


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_seeded_cli_output_unchanged(name, tmp_path):
    assert cli_digest(name, tmp_path) == CLI_EXPECTED[name]
