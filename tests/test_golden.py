"""Seeded outputs of every estimator, pinned to exact floats and ledgers.

A change that keeps RNG consumption and arithmetic order the same leaves
every value below byte-identical; one that moves a value must say which one
and why.  Criterion 12 only checks that two runs agree with each other,
this test checks that they agree with the recorded history.
"""

import zlib

import numpy as np
import pytest

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
        'z_value': 2.0000977934068125,
        'ratios': [0.5858341059577732, 0.8535256709477832],
        'ledger': {'a_uses': 3060,
                   'a_inv_uses': 3060,
                   'reflection_uses': 64636380,
                   'walk_steps': 0,
                   'classical_samples': 480},
    },
    'partition_k2_walk_idealized': {
        'z_value': 1.9999814535181273,
        'ratios': [0.5858396462351396, 0.8534679525237315],
        'ledger': {'a_uses': 3060,
                   'a_inv_uses': 3060,
                   'reflection_uses': 64636380,
                   'walk_steps': 2588129640,
                   'classical_samples': 480},
    },
    'partition_k2_walk_exact_sim': {
        'z_value': 2.0001393225838977,
        'ratios': [0.5858462699671577, 0.8535256709477832],
        'ledger': {'a_uses': 3060,
                   'a_inv_uses': 3060,
                   'reflection_uses': 64636380,
                   'walk_steps': 99284154120,
                   'classical_samples': 480},
    },
    'partition_c4m_ideal_sampling': {
        'z_value': 7.000165060729495,
        'ratios': [3.1796778079779484, 1.7341433450677148, 1.2695218242659227],
        'ledger': {'a_uses': 7119,
                   'a_inv_uses': 7119,
                   'reflection_uses': 291985785,
                   'walk_steps': 0,
                   'classical_samples': 1344},
    },
    'partition_c4m_walk_idealized': {
        'z_value': 6.999795609182108,
        'ratios': [3.179442804958934, 1.7341433450677146, 1.2695486515757444],
        'ledger': {'a_uses': 7119,
                   'a_inv_uses': 7119,
                   'reflection_uses': 291985785,
                   'walk_steps': 12904127208,
                   'classical_samples': 1344},
    },
    'partition_c4m_walk_exact_sim': {
        'z_value': 7.0001535395193075,
        'ratios': [3.1797190242129263, 1.7341251307335275, 1.269516613216176],
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_output_unchanged(name):
    # each case's seed is the CRC-32 of its name, so adding a case moves none
    assert observe(name, zlib.crc32(name.encode())) == EXPECTED[name]
