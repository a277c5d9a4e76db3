"""Command-line front end: experiment runner and reporting shell.

Every subcommand emits JSON (or CSV for tables) on stdout, with a fixed key
order so identical seeds give byte-identical output.  Exit codes: 1 for bad
configuration (any uncaught ValueError or ArithmeticError), 2 for I/O
problems, 3 for a detected contract violation; each error is one stderr line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .chains import ChainError, chain_for, relaxation_time
from .gibbs import (colouring_model, exact_partition, ising_model,
                    matching_model, read_graph)
from .mean import (bounded_mean_constant, classical_mean_chebyshev,
                   estimate_mean_bounded, estimate_mean_l2,
                   estimate_mean_relative, estimate_mean_variance, l2_constant,
                   t_for_additive_error)
from .amplitude import (AE_SUCCESS_PROB, interval_coverage,
                        outcome_interval_halfwidth)
from .outcome import DistributionError, QueryLedger, make_distribution
from .partition import (ScheduleError, build_schedule, classical_baseline,
                        estimate_partition, verify_schedule)
from .tvd import estimate_tvd
from .walk import szegedy_walk, spectral_correspondence_residual

SCHEMA = 1

EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_CONTRACT = 3


# method -> call on (distribution, settings, rng, ledger); settings carries
# eps, delta, sigma, B and t (0 = derived from eps).  The estimators are looked
# up by module-level name at call time.
ESTIMATORS = {
    "bounded": lambda d, a, rng, led: estimate_mean_bounded(
        d, a.t or t_for_additive_error(a.eps), a.delta, rng, led),
    "l2": lambda d, a, rng, led: estimate_mean_l2(d, a.eps, rng, led),
    "variance": lambda d, a, rng, led: estimate_mean_variance(
        d, a.sigma, a.eps, rng, led),
    "relative": lambda d, a, rng, led: estimate_mean_relative(
        d, a.B, a.eps, rng, led),
    "classical": lambda d, a, rng, led: classical_mean_chebyshev(
        d, a.sigma, a.eps, rng, led),
}


def _write(text, out=None):
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(obj, out=None):
    _write(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False), out)


def _constants():
    return {"C": bounded_mean_constant(), "D": l2_constant(),
            "c_r": 1.0, "c_s": 1.0}


def _finite(x):
    """JSON-safe float (math.inf serializes as the string 'inf')."""
    return "inf" if x == math.inf else x


def _load_distribution(path):
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise SystemExit(_fail(EXIT_IO, f"cannot read {path}: {exc}"))
    except json.JSONDecodeError as exc:
        raise SystemExit(_fail(EXIT_IO, f"bad JSON in {path}: {exc}"))
    try:
        return make_distribution(payload["support"])
    except (KeyError, TypeError, DistributionError) as exc:
        raise SystemExit(_fail(EXIT_CONFIG, f"bad distribution in {path}: {exc}"))


def _fail(code, message):
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_model(args):
    try:
        g = read_graph(args.graph)
    except OSError as exc:
        raise SystemExit(_fail(EXIT_IO, f"cannot read graph: {exc}"))
    except ValueError as exc:
        raise SystemExit(_fail(EXIT_CONFIG, f"bad graph file: {exc}"))
    if args.model == "colouring":
        return colouring_model(g, args.k)
    return (ising_model if args.model == "ising" else matching_model)(g)


def _parse_betas(text):
    try:
        betas = [float(tok) for tok in text.split(",")]  # float("inf") is inf
    except ValueError:
        betas = [math.nan]
    if any(map(math.isnan, betas)) or -math.inf in betas:
        raise ValueError(f"bad --betas {text!r}: want numbers or inf")
    return betas


def _check_range(flag, value, lo, hi):
    """Reject a setting outside the open interval (lo, hi) before any work."""
    if not lo < value < hi:
        raise ValueError(f"{flag} must be in ({lo}, {hi})")


def _unshifted_z(m, beta):
    """Z_u(beta) = sum_h c_h e^{beta (|E| - 2h)}, the Ising Z for H = -sum z_u z_v.

    The largest exponent is factored out (log-sum-exp over energy levels), so
    an overflow reads inf, never nan.
    """
    levels = [(len(m.graph.edges) - 2 * h, float(c))
              for h, c in enumerate(m.counts) if c]
    top = max(beta * s for s, _ in levels)
    if top == math.inf:
        return math.inf
    rest = sum(c * math.exp(beta * s - top) for s, c in levels)
    try:
        return math.exp(top) * rest
    except OverflowError:
        return math.inf


def cmd_mean(args):
    d = _load_distribution(args.dist)
    rng = np.random.default_rng(args.seed)
    ledger = QueryLedger()
    est = ESTIMATORS[args.method](d, args, rng, ledger)
    _emit({"schema": SCHEMA, "version": __version__, "method": args.method,
           "seed": args.seed, "value": est.value, "confidence": est.confidence,
           "target_error": _finite(est.target_error),
           "error_kind": est.error_kind, "ledger": est.ledger.as_dict(),
           "constants": _constants()}, args.out)
    return 0


def cmd_ae_check(args):
    cov = interval_coverage(args.a, args.t)
    _emit({"schema": SCHEMA, "a": args.a, "t": args.t, "coverage": cov,
           "bound": outcome_interval_halfwidth(args.a, args.t),
           "success_floor": AE_SUCCESS_PROB}, args.out)
    return EXIT_CONTRACT if cov < AE_SUCCESS_PROB else 0


def cmd_model(args):
    m = _load_model(args)
    betas = _parse_betas(args.betas)
    lines = ["beta,Z,Z_unshifted"]
    for beta in betas:
        z = exact_partition(m, beta)
        ising = m.name == "ising" and beta != math.inf
        zu = _unshifted_z(m, beta) if ising else z
        lines.append(f"{_finite(beta)},{z!r},{zu!r}")
    _write("\n".join(lines), args.out)
    return 0


def cmd_chain(args):
    m = _load_model(args)
    try:
        c = chain_for(m, args.beta)
        tau = relaxation_time(c)
    except ChainError as exc:
        return _fail(EXIT_CONTRACT, str(exc))
    _emit({"schema": SCHEMA, "model": args.model, "beta": _finite(args.beta),
           "tau": tau, "lambda1": c.lambda1,
           "stationarity_residual": float(np.abs(c.pi @ c.P - c.pi).max()),
           "row_sum_residual": float(np.abs(c.P.sum(axis=1) - 1.0).max())},
          args.out)
    return 0


def cmd_walk_check(args):
    m = _load_model(args)
    try:
        w = szegedy_walk(chain_for(m, args.beta))
    except (ChainError, ValueError) as exc:
        return _fail(EXIT_CONTRACT, str(exc))
    _emit({"schema": SCHEMA, "model": args.model, "beta": _finite(args.beta),
           "phases": sorted(round(p, 12) for p in w.phases),
           "phase_gap": w.phase_gap, "unitarity_residual": w.unitarity_residual,
           "spectral_residual": spectral_correspondence_residual(w)}, args.out)
    return 0


def cmd_schedule(args):
    _check_range("--B", args.B, 1, math.inf)
    m = _load_model(args)
    try:
        s = build_schedule(m, args.B, args.direction)
    except ScheduleError as exc:
        return _fail(EXIT_CONTRACT, str(exc))
    report = verify_schedule(m, s)
    if not report["ok"]:
        return _fail(EXIT_CONTRACT, "schedule failed verification")
    _emit({"schema": SCHEMA, "model": args.model, "B": args.B,
           "direction": s.direction, "ell": s.ell,
           "betas": [_finite(b) for b in s.betas],
           "pairs": [{**p, "beta_j": _finite(p["beta_j"])}
                     for p in report["pairs"]],
           "source": "oracle schedule"}, args.out)
    return 0


def cmd_partition(args):
    _check_range("--eps", args.eps, 0, 1)
    _check_range("--delta", args.delta, 0, 1)
    _check_range("--B", args.B, 1, math.inf)
    m = _load_model(args)
    direction = args.direction or ("reversed" if args.model == "matching"
                                   else "forward")
    rng = np.random.default_rng(args.seed)
    ledger = QueryLedger()
    try:
        s = build_schedule(m, args.B, direction)
        if args.mode == "classical":
            pe = classical_baseline(m, s, args.eps, rng, ledger)
        else:
            pe = estimate_partition(m, s, args.eps, args.delta, args.mode,
                                    rng, ledger)
    except (ScheduleError, ValueError, ArithmeticError) as exc:
        return _fail(EXIT_CONTRACT, str(exc))
    _emit({"schema": SCHEMA, "model": args.model, "seed": args.seed,
           "B": args.B, "eps": args.eps, "delta": args.delta,
           "mode": args.mode, "direction": direction,
           "betas": [_finite(b) for b in s.betas], "z_value": pe.z_value,
           "ratios": pe.ratios, "ledger": pe.ledger.as_dict(),
           "meta": pe.meta, "constants": _constants()}, args.out)
    return 0


def _on_support(d, support):
    """d's probabilities on a sorted superset of its support values."""
    probs = np.zeros(len(support))
    probs[np.searchsorted(support, d.values)] = d.probs
    return probs


def cmd_tvd(args):
    p = _load_distribution(args.p)
    q = _load_distribution(args.q)
    support = np.union1d(p.values, q.values)
    rng = np.random.default_rng(args.seed)
    ledger = QueryLedger()
    est = estimate_tvd(_on_support(p, support), _on_support(q, support),
                       args.eps, args.delta, rng, ledger)
    _emit({"schema": SCHEMA, "seed": args.seed, "eps": args.eps,
           "delta": args.delta, "value": est.value,
           "confidence": est.confidence, "ledger": est.ledger.as_dict(),
           "constants": _constants()}, args.out)
    return 0


def cmd_bench(args):
    _check_range("--trials", args.trials, 0, math.inf)
    d = _load_distribution(args.dist)
    name, _, values = args.sweep.partition("=")
    try:
        sweep = [float(tok) for tok in values.split(",")] if name == "eps" else []
    except ValueError:
        sweep = []
    if not sweep:
        return _fail(EXIT_CONFIG, f"bad --sweep {args.sweep!r}: want eps=v1,v2,...")
    seeds = iter(np.random.SeedSequence(args.seed).spawn(len(sweep) * args.trials))
    lines = ["eps,reflections,classical_samples,error"]
    for eps in sweep:
        settings = argparse.Namespace(eps=eps, delta=0.1, t=0,
                                      sigma=args.sigma, B=args.B)
        for _ in range(args.trials):
            ledger = QueryLedger()
            est = ESTIMATORS[args.method](
                d, settings, np.random.default_rng(next(seeds)), ledger)
            err = abs(est.value - d.mean())
            if args.method == "relative":
                err /= abs(d.mean())
            lines.append(f"{eps!r},{ledger.reflection_uses},"
                         f"{ledger.classical_samples},{err!r}")
    _write("\n".join(lines), args.out)
    return 0


def cmd_validate(args):
    from .validate import validate_suite

    report = validate_suite(criteria=args.criteria)
    for entry in report["criteria"]:
        status = "PASS" if entry["passed"] else "FAIL"
        print(f"[{status}] criterion {entry['id']:>2}  {entry['name']}"
              f"  ({entry['seconds']:.1f}s)")
    _emit({"schema": SCHEMA, **report}, args.out)
    return 0 if report["ok"] else EXIT_CONTRACT


def build_parser():
    ap = argparse.ArgumentParser(prog="qmcs",
                                 description="Monte Carlo estimators with "
                                             "quadratically better accuracy "
                                             "scaling, with query metering")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        p.set_defaults(func=func)
        return p

    p = command("mean", cmd_mean, "estimate the mean of a distribution")
    p.add_argument("--dist", required=True)
    p.add_argument("--method", default="bounded", choices=list(ESTIMATORS))
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--B", type=float, default=1.0)
    p.add_argument("--t", type=int, default=0)

    p = command("ae-check", cmd_ae_check, "interval coverage of one (a, t) cell")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--t", type=int, required=True)

    def model_flags(p):
        p.add_argument("--model", required=True,
                       choices=["ising", "colouring", "matching"])
        p.add_argument("--graph", required=True)
        p.add_argument("--k", type=int, default=3)

    p = command("model", cmd_model, "partition-function table (CSV)")
    model_flags(p)
    p.add_argument("--betas", default="0,0.5,1,2,inf")

    p = command("chain", cmd_chain, "relaxation time and residuals")
    model_flags(p)
    p.add_argument("--beta", type=float, default=0.0)

    p = command("walk-check", cmd_walk_check, "walk spectrum diagnostics")
    model_flags(p)
    p.add_argument("--beta", type=float, default=0.0)

    p = command("schedule", cmd_schedule, "build and verify a cooling schedule")
    model_flags(p)
    p.add_argument("--B", type=float, default=2.0)
    p.add_argument("--direction", default="forward",
                   choices=["forward", "reversed"])

    p = command("partition", cmd_partition, "estimate a partition function")
    model_flags(p)
    p.add_argument("--B", type=float, default=2.0)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--mode", default="ideal_sampling",
                   choices=["ideal_sampling", "walk_idealized",
                            "walk_exact_sim", "classical"])
    p.add_argument("--direction", default=None,
                   choices=["forward", "reversed"])

    p = command("tvd", cmd_tvd, "estimate total variation distance")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.1)

    p = command("bench", cmd_bench, "accuracy sweep, CSV ledger rows")
    p.add_argument("--dist", required=True)
    p.add_argument("--method", default="variance", choices=list(ESTIMATORS))
    p.add_argument("--sweep", default="eps=0.1,0.05,0.02",
                   help="eps=v1,v2,...")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--B", type=float, default=1.0)

    p = command("validate", cmd_validate, "run the acceptance suite")
    p.add_argument("--criteria", default=None,
                   help="comma-separated criterion ids (default: all)")
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.seed < 0:  # numpy would reject it mid-command
            raise ValueError("--seed must be >= 0")
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader left; stdout on devnull keeps the final flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _fail(EXIT_IO, "stdout closed before the output was written")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    except (ValueError, ArithmeticError) as exc:  # bad settings or inputs
        return _fail(EXIT_CONFIG, str(exc))


if __name__ == "__main__":
    sys.exit(main())
