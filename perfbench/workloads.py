"""The benchmark's workloads: inputs made from the seed, ops, and their checks.

A workload runs in rounds. A round is a fixed multiset of ops whose order,
and for ``tvd-laws`` whose laws, come from ``(seed, round)``. The worker only
stops at a round boundary, so every run measures the same op mix.

Calls into ``qmcs`` go through the package attributes (``qmcs.name``) at call
time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import qmcs
from qmcs.gibbs import Graph


@dataclass
class Result:
    value: float        # the estimate (a fidelity for warm starts)
    hit: bool           # within the op's stated target error
    confidence: float   # the op's stated success probability
    ledger: "qmcs.QueryLedger"
    ledger_ok: bool     # the op's own ledger check


def _shuffled(ops, rng):
    return [ops[i] for i in rng.permutation(len(ops))]


class MeanSweep:
    """Criteria 4 and 5: variance-mode and relative-error mean estimation."""

    VARIANCE_EPS = (0.1, 0.05, 0.02, 0.01, 0.005)
    RELATIVE_EPS = (0.05, 0.02)
    SIGMA = 1.0
    B = 1.25

    def __init__(self):
        qmcs.bounded_mean_constant()
        self.variance_law = qmcs.make_distribution(
            [(4.0, 0.25), (5.0, 0.5), (6.0, 0.25)])
        self.relative_law = qmcs.make_distribution([(1.0, 0.5), (3.0, 0.5)])
        self.ops = ([(f"variance eps={e}", ("variance", e))
                     for e in self.VARIANCE_EPS]
                    + [(f"relative eps={e}", ("relative", e))
                       for e in self.RELATIVE_EPS])

    def round_ops(self, seed, r):
        return _shuffled(self.ops, np.random.default_rng([seed, r]))

    def run(self, op, rng):
        kind, eps = op
        ledger = qmcs.QueryLedger()
        if kind == "variance":
            est = qmcs.estimate_mean_variance(self.variance_law, self.SIGMA,
                                              eps, rng, ledger)
            truth = self.variance_law.mean()
            hit = abs(est.value - truth) <= eps
        else:
            est = qmcs.estimate_mean_relative(self.relative_law, self.B, eps,
                                              rng, ledger)
            truth = self.relative_law.mean()
            hit = abs(est.value - truth) <= eps * truth
        return Result(est.value, hit, est.confidence, ledger,
                      est.ledger == ledger)


def _cycle(n):
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


class PartitionWalk:
    """Criterion 8 and the walk layer: partition estimation in all three modes."""

    B = 2.0
    EPS = 0.1
    DELTA = 0.25
    WARM_EPS = 0.05
    # name, model, schedule direction, estimate_partition mode
    INSTANCES = (
        ("c4-ising", lambda: qmcs.ising_model(_cycle(4)), "forward",
         "walk_exact_sim"),
        ("c6-matching", lambda: qmcs.matching_model(_cycle(6)), "reversed",
         "walk_exact_sim"),
        ("k3-colouring", lambda: qmcs.colouring_model(
            Graph(3, ((0, 1), (1, 2), (0, 2))), 3), "forward", "walk_exact_sim"),
        ("c5-ising", lambda: qmcs.ising_model(_cycle(5)), "forward",
         "walk_exact_sim"),
        ("c8-ising", lambda: qmcs.ising_model(_cycle(8)), "forward",
         "walk_idealized"),
        ("c4-matching", lambda: qmcs.matching_model(_cycle(4)), "reversed",
         "ideal_sampling"),
    )
    WARM = "c4-ising"

    def __init__(self):
        qmcs.bounded_mean_constant()
        self.models, self.truths, self.ops = {}, {}, []
        for name, build, direction, mode in self.INSTANCES:
            m = build()
            s = qmcs.build_schedule(m, self.B, direction)
            anchor = math.inf if direction == "forward" else 0.0
            self.models[name] = (m, s)
            self.truths[name] = qmcs.exact_partition(m, anchor)
            self.ops.append((f"{mode} {name}", ("partition", name, mode)))
        m, s = self.models[self.WARM]
        self.warm_rung = len(s.betas) - 2  # the last finite beta
        self.warm_target = np.sqrt(
            qmcs.gibbs_distribution(m, s.betas[self.warm_rung]))
        self.ops.append((f"warm_start {self.WARM}", ("warm", self.WARM, None)))

    def round_ops(self, seed, r):
        return _shuffled(self.ops, np.random.default_rng([seed, r]))

    def run(self, op, rng):
        kind, name, mode = op
        m, s = self.models[name]
        ledger = qmcs.QueryLedger()
        if kind == "warm":
            qs = qmcs.warm_start_prepare(m, list(s.betas), self.warm_rung,
                                         self.WARM_EPS, "exact_sim", ledger)
            fidelity = float(qs.amplitudes @ self.warm_target) ** 2
            return Result(fidelity, fidelity >= 1.0 - self.WARM_EPS, 1.0,
                          ledger, ledger.walk_steps > 0)
        pe = qmcs.estimate_partition(m, s, self.EPS, self.DELTA, mode, rng,
                                     ledger)
        truth = self.truths[name]
        walked = ledger.walk_steps > 0
        return Result(pe.z_value, abs(pe.z_value - truth) <= self.EPS * truth,
                      1.0 - self.DELTA, ledger,
                      pe.ledger == ledger and walked == (mode != "ideal_sampling"))


class TvdLaws:
    """Criterion 10 on random laws: fresh subroutine laws, then reused ones."""

    SIZES = (4, 16, 64)
    EPS = (0.1, 0.05)
    DELTA = 0.1
    REUSES = 3  # estimates of each instance after the fresh one

    def __init__(self):
        qmcs.bounded_mean_constant()
        self.budgets = {(n, e): qmcs.tvd_query_budget(n, e, self.DELTA)
                        for n in self.SIZES for e in self.EPS}

    def round_ops(self, seed, r):
        rng = np.random.default_rng([seed, r])
        ops = []
        for n in self.SIZES:
            for eps in self.EPS:
                p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
                ops += [(f"tvd n={n} eps={eps}", (n, eps, p, q))] * (1 + self.REUSES)
        return _shuffled(ops, rng)

    def run(self, op, rng):
        n, eps, p, q = op
        ledger = qmcs.QueryLedger()
        est = qmcs.estimate_tvd(p, q, eps, self.DELTA, rng, ledger)
        budget = self.budgets[(n, eps)]
        ledger_ok = (est.ledger == ledger
                     and ledger.reflection_uses == budget["ae_iterations"]
                     and ledger.classical_samples == budget["subroutine_invocations"])
        return Result(est.value, abs(est.value - qmcs.exact_tvd(p, q)) <= eps,
                      est.confidence, ledger, ledger_ok)


WORKLOADS = {"mean-sweep": MeanSweep, "partition-walk": PartitionWalk,
             "tvd-laws": TvdLaws}
