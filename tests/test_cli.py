import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmcs
from qmcs.cli import main


@pytest.fixture
def bernoulli(tmp_path):
    path = tmp_path / "bernoulli.json"
    path.write_text(json.dumps({"support": [[0.0, 0.75], [1.0, 0.25]]}))
    return str(path)


@pytest.fixture
def k2_graph(tmp_path):
    path = tmp_path / "k2.txt"
    path.write_text("2 1\n0 1\n")
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_mean_bounded_json_and_determinism(capsys, bernoulli):
    argv = ["mean", "--dist", bernoulli, "--eps", "0.05", "--seed", "7"]
    code1, out1 = _run(capsys, argv)
    code2, out2 = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical under a fixed seed
    payload = json.loads(out1)
    assert payload["schema"] == 1
    assert abs(payload["value"] - 0.25) <= 0.05
    assert payload["ledger"]["reflection_uses"] > 0
    assert "C" in payload["constants"]


def test_mean_missing_file_is_io_error(capsys, tmp_path):
    code = main(["mean", "--dist", str(tmp_path / "nope.json")])
    assert code == 2


def test_mean_bad_distribution_is_config_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"support": [[0.0, 0.5], [1.0, 0.4]]}))
    assert main(["mean", "--dist", str(path)]) == 1


def test_ae_check_reports_coverage(capsys):
    code, out = _run(capsys, ["ae-check", "--a", "0.25", "--t", "100"])
    assert code == 0
    payload = json.loads(out)
    assert payload["coverage"] >= 8.0 / math.pi**2 - 1e-12


def test_model_table_csv(capsys, k2_graph):
    code, out = _run(capsys, ["model", "--model", "ising", "--graph", k2_graph,
                              "--betas", "0,inf"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("beta")
    rows = dict(line.split(",")[:2] for line in lines[1:])
    assert float(rows["0.0"]) == 4.0
    assert float(rows["inf"]) == 2.0


def test_chain_command_reports_tau(capsys, k2_graph):
    code, out = _run(capsys, ["chain", "--model", "ising", "--graph", k2_graph,
                              "--beta", "1.0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["tau"] >= 1.0


def test_chain_nonergodic_is_contract_error(capsys, k2_graph):
    # single-edge matching chain at beta=0 is periodic
    code = main(["chain", "--model", "matching", "--graph", k2_graph,
                 "--beta", "0.0"])
    assert code == 3


def test_walk_check_spectral_residual(capsys, k2_graph):
    code, out = _run(capsys, ["walk-check", "--model", "ising",
                              "--graph", k2_graph, "--beta", "0.8"])
    assert code == 0
    payload = json.loads(out)
    assert payload["spectral_residual"] <= 1e-8


def test_schedule_command(capsys, k2_graph):
    code, out = _run(capsys, ["schedule", "--model", "ising",
                              "--graph", k2_graph, "--B", "2.0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["betas"] == [0.0, "inf"]
    assert all(pair["ok"] for pair in payload["pairs"])


def test_partition_command(capsys, k2_graph):
    code, out = _run(capsys, ["partition", "--model", "ising",
                              "--graph", k2_graph, "--B", "2.0",
                              "--eps", "0.1", "--seed", "3"])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["z_value"] - 2.0) <= 0.3 * 2.0


def test_tvd_command(capsys, tmp_path):
    p = tmp_path / "p.json"
    q = tmp_path / "q.json"
    p.write_text(json.dumps({"support": [[0, 0.7], [1, 0.3]]}))
    q.write_text(json.dumps({"support": [[0, 0.4], [1, 0.6]]}))
    code, out = _run(capsys, ["tvd", "--p", str(p), "--q", str(q),
                              "--eps", "0.1", "--seed", "1"])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 0.3) <= 0.1


def test_tvd_aligns_laws_by_support_value(capsys, tmp_path):
    # p on {0, 1} and q on {1, 2} share only the value 1: the TVD is 1/2
    p = tmp_path / "p.json"
    q = tmp_path / "q.json"
    p.write_text(json.dumps({"support": [[0, 0.5], [1, 0.5]]}))
    q.write_text(json.dumps({"support": [[1, 0.5], [2, 0.5]]}))
    code, out = _run(capsys, ["tvd", "--p", str(p), "--q", str(q),
                              "--eps", "0.1", "--seed", "5"])
    assert code == 0
    assert abs(json.loads(out)["value"] - 0.5) <= 0.1


@pytest.mark.parametrize("sweep", ["0.1", "eps=", "eps=0.1,x", "delta=0.1"])
def test_bench_malformed_sweep_is_config_error(capsys, bernoulli, sweep):
    code = main(["bench", "--dist", bernoulli, "--sweep", sweep])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bench_csv_shape(capsys, bernoulli):
    code, out = _run(capsys, ["bench", "--dist", bernoulli,
                              "--method", "bounded",
                              "--sweep", "eps=0.1,0.05", "--trials", "2",
                              "--seed", "9"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 2 * 2  # header + sweep x trials
    assert "eps" in lines[0]


@pytest.mark.parametrize("trials", ["-1", "0"])
def test_bench_nonpositive_trials_is_config_error(capsys, bernoulli, trials):
    # -1 used to print numpy's "can't convert negative value to uint32_t",
    # 0 a CSV header with no rows and exit 0
    code = main(["bench", "--dist", bernoulli, f"--trials={trials}"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: --trials must be in (0, inf)\n"


@pytest.mark.parametrize("cmd", [
    ["mean", "--dist", "{dist}"],
    ["partition", "--model", "ising", "--graph", "{graph}"],
    ["tvd", "--p", "{dist}", "--q", "{dist}"],
    ["bench", "--dist", "{dist}"],
], ids=["mean", "partition", "tvd", "bench"])
def test_negative_seed_is_config_error(capsys, bernoulli, k2_graph, cmd):
    # used to print numpy's "expected non-negative integer"
    argv = [arg.format(dist=bernoulli, graph=k2_graph) for arg in cmd]
    code = main([*argv, "--seed=-1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: --seed must be >= 0\n"


def test_output_file_option(capsys, bernoulli, tmp_path):
    out_path = tmp_path / "result.json"
    code = main(["mean", "--dist", bernoulli, "--out", str(out_path)])
    assert code == 0
    assert json.loads(out_path.read_text())["schema"] == 1


@pytest.mark.parametrize("argv", [
    ["ae-check", "--a", "1.5", "--t", "10"],
    ["ae-check", "--a", "0.3", "--t", "0"],
    ["ae-check", "--a", "0.3", "--t", "-5"],
    ["ae-check", "--a", "0.3", "--t", "100000000000000000"],
])
def test_ae_check_bad_cell_is_config_error(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_tvd_over_outcome_law_cap_is_config_error(capsys, tmp_path):
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"support": [[0, 0.7], [1, 0.3]]}))
    code = main(["tvd", "--p", str(p), "--q", str(p), "--eps", "1e-9"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: t=") and "cap" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("betas", ["0,x", "0,nan", "-inf", "0,,1"])
def test_model_bad_betas_is_config_error(capsys, k2_graph, betas):
    code = main(["model", "--model", "ising", "--graph", k2_graph,
                 f"--betas={betas}"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


def test_model_overflowing_unshifted_z_is_inf(capsys, k2_graph):
    code, out = _run(capsys, ["model", "--model", "ising", "--graph", k2_graph,
                              "--betas", "1000"])
    assert code == 0
    assert out.strip().splitlines()[1] == "1000.0,2.0,inf"


def test_model_huge_negative_beta_reads_inf(capsys, k2_graph):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = _run(capsys, ["model", "--model", "ising", "--graph",
                                  k2_graph, "--betas=-1e308"])
    assert code == 0
    assert out.strip().splitlines()[1] == "-1e+308,inf,inf"


def test_model_over_state_cap_is_config_error(capsys, tmp_path):
    path = tmp_path / "g21.txt"
    path.write_text("21 0\n")
    code = main(["model", "--model", "ising", "--graph", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: Ising state space exceeds cap\n"


@pytest.mark.parametrize("flag, value", [
    ("--eps", "0"), ("--eps", "1"), ("--eps", "-0.1"), ("--eps", "nan"),
    ("--delta", "0"), ("--delta", "1.5"), ("--B", "1"), ("--B", "0.5"),
    ("--B", "inf"),
])
def test_partition_bad_setting_is_config_error(capsys, k2_graph, flag, value):
    code = main(["partition", "--model", "ising", "--graph", k2_graph,
                 f"{flag}={value}", "--mode", "classical"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["1", "0.5", "nan"])
def test_schedule_bad_B_is_config_error(capsys, k2_graph, value):
    code = main(["schedule", "--model", "ising", "--graph", k2_graph,
                 f"--B={value}"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: --B ") and err.count("\n") == 1


@pytest.mark.parametrize("ids, bad", [("99", "99"), ("1,x", "x"), ("0", "0")])
def test_validate_unknown_criteria_is_config_error(capsys, ids, bad):
    code = main(["validate", "--criteria", ids])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: unknown criterion ids")
    assert repr(bad) in captured.err
    assert captured.err.count("\n") == 1


def test_mean_nan_probability_is_config_error(capsys, tmp_path):
    # the all-NaN law used to fail later, as "amplitude must lie in [0, 1]"
    path = tmp_path / "nan.json"
    path.write_text('{"support": [[0, NaN], [1, 1]]}')
    code = main(["mean", "--dist", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: bad distribution") and err.count("\n") == 1
    assert "finite and nonnegative" in err


@pytest.mark.parametrize("cmd", ["chain", "walk-check"])
@pytest.mark.parametrize("beta", ["nan", "-inf"])
def test_chain_nan_beta_is_config_error(capsys, k2_graph, cmd, beta):
    # chain used to end in "Eigenvalues did not converge", walk-check in exit 3
    code = main([cmd, "--model", "ising", "--graph", k2_graph,
                 f"--beta={beta}"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: Gibbs distribution at beta={float(beta)}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flag, value, message", [
    ("--eps", "0", "epsilon must be positive"),
    ("--sigma", "0", "sigma must be positive"),
    ("--sigma", "nan", "sigma must be positive"),
    ("--sigma", "1e6", "1.2e+15 classical samples exceed the cap 1e+07"),
    # sigma^2 used to overflow: "error: (34, 'Numerical result out of range')"
    ("--sigma", "1e200", "inf classical samples exceed the cap 1e+07"),
])
def test_mean_classical_bad_setting_is_config_error(capsys, bernoulli, flag,
                                                    value, message):
    # --eps 0 used to print "error: float division by zero"
    code = main(["mean", "--dist", bernoulli, "--method", "classical",
                 f"{flag}={value}"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [["--method", "variance", "--sigma", "1e200"],
                                  ["--method", "l2", "--eps", "1e-12"],
                                  ["--method", "l2", "--eps", "5e-324"],
                                  ["--method", "bounded", "--eps", "1e-300"],
                                  ["--method", "bounded", "--eps", "5e-324"]])
def test_mean_over_ae_length_cap_is_config_error(capsys, bernoulli, argv):
    # variance used to exit 0 charging about 3.7e210 reflections; l2 sampled
    # at t0 = 1.3e14, where the outcome scan's phase error reaches 0.1 rad,
    # and at eps 5e-324 printed "cannot convert float infinity to integer";
    # bounded printed "int too large to convert to float" at eps 1e-300 and
    # the infinity message at 5e-324
    assert main(["mean", "--dist", bernoulli, *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: t=") and err.count("\n") == 1
    assert err.endswith("exceeds the amplitude-estimation cap 4294967296\n")


@pytest.mark.parametrize("B, count", [("1e9", "3.2e+10"), ("1e308", "inf")])
def test_mean_relative_over_sample_cap_is_config_error(capsys, bernoulli, B,
                                                       count):
    # the 32B proxy samples: --B 1e9 used to end in a MemoryError traceback
    # asking for 238 GiB, and --B 1e308 in "cannot convert float infinity"
    assert main(["mean", "--dist", bernoulli, "--method", "relative",
                 f"--B={B}"]) == 1
    assert capsys.readouterr().err == \
        f"error: {count} classical samples exceed the cap 1e+07\n"


@pytest.mark.parametrize("cmd", ["schedule", "partition"])
def test_schedule_over_rung_cap_is_contract_error(capsys, tmp_path, cmd):
    # B this close to 1 asks for 6,619 rungs, which took 17.8 s to build
    path = tmp_path / "triangle.txt"
    path.write_text("3 3\n0 1\n1 2\n0 2\n")
    start = time.monotonic()
    code = main([cmd, "--model", "ising", "--graph", str(path),
                 "--B", "1.0000001"])
    assert time.monotonic() - start < 10.0
    assert code == 3
    assert capsys.readouterr().err == \
        "error: schedule at B=1.0000001 exceeds the 256-rung cap\n"


def test_partition_over_reps_cap_is_contract_error(capsys, k2_graph):
    # delta/ell = 5e-301 asks for 4,771 relative estimates per ratio, which
    # took 3.4 s on two spins
    start = time.monotonic()
    code = main(["partition", "--model", "ising", "--graph", k2_graph,
                 "--delta", "1e-300", "--eps", "0.9", "--B", "8"])
    assert time.monotonic() - start < 1.0
    assert code == 3
    assert capsys.readouterr().err == ("error: delta=1e-300 needs 4771 "
                                       "estimates per ratio, over the cap 1001\n")


def test_closed_stdout_is_io_error(tmp_path):
    # a reader that leaves early, as in `qmcs model ... | true`, used to end
    # in a BrokenPipeError traceback and exit 1
    path = tmp_path / "c4.txt"
    path.write_text("4 4\n0 1\n1 2\n2 3\n3 0\n")
    src = str(Path(qmcs.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qmcs", "model", "--model", "ising",
             "--graph", str(path)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_matching_chain_negative_beta(capsys, tmp_path):
    # below 0 a removal raises the Gibbs weight; Metropolis accepts it w.p. e^beta
    path = tmp_path / "triangle.txt"
    path.write_text("3 3\n0 1\n1 2\n0 2\n")
    code, out = _run(capsys, ["chain", "--model", "matching", "--graph",
                              str(path), "--beta=-0.5"])
    assert code == 0
    assert json.loads(out)["stationarity_residual"] <= 1e-12
    # at -50 the three one-edge matchings trade mass through the empty one
    # with probability e^-50: the chain is stationary, and not ergodic in
    # double precision
    assert main(["chain", "--model", "matching", "--graph", str(path),
                 "--beta=-50"]) == 3
    assert "not ergodic" in capsys.readouterr().err


def test_partition_without_ground_states_is_contract_error(capsys, tmp_path):
    # a triangle has no proper 2-colouring, so Z(inf) = 0 anchors nothing
    path = tmp_path / "triangle.txt"
    path.write_text("3 3\n0 1\n1 2\n0 2\n")
    code = main(["partition", "--model", "colouring", "--k", "2",
                 "--graph", str(path)])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("cmd", [["model"], ["chain"],
                                 ["partition", "--mode", "classical"]])
def test_negative_vertex_count_is_bad_graph(capsys, tmp_path, cmd):
    path = tmp_path / "negative.txt"
    path.write_text("-1 0\n")
    code = main(cmd + ["--model", "ising", "--graph", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: bad graph file: negative vertex count -1\n"


@pytest.mark.parametrize("cmd", [["chain"], ["walk-check"],
                                 ["partition", "--mode", "walk_idealized"]])
def test_glauber_chain_without_sites_is_contract_error(capsys, tmp_path, cmd):
    path = tmp_path / "empty.txt"
    path.write_text("0 0\n")
    code = main(cmd + ["--model", "ising", "--graph", str(path)])
    assert code == 3
    assert capsys.readouterr().err == \
        "error: glauber chain needs at least one site\n"
    # the model itself is fine: one empty configuration, Z = 1
    code, out = _run(capsys, ["model", "--model", "ising", "--graph",
                              str(path), "--betas", "0,inf"])
    assert code == 0 and out == "beta,Z,Z_unshifted\n0.0,1.0,1.0\ninf,1.0,1.0\n"


@pytest.mark.parametrize("cmd", [["walk-check"],
                                 ["partition", "--mode", "walk_idealized"],
                                 ["partition", "--mode", "walk_exact_sim"]])
def test_one_state_chain_is_contract_error(capsys, tmp_path, cmd):
    # one colour on two free vertices leaves one state; walk-check used to
    # exit 1, and the walk modes 3, with numpy's "zero-size array to
    # reduction operation minimum which has no identity"
    path = tmp_path / "edgeless.txt"
    path.write_text("2 0\n")
    code = main(cmd + ["--model", "colouring", "--k", "1", "--graph", str(path)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "error: a one-state chain has no walk phase\n"


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "triangle.txt").write_text("3 3\n0 1\n1 2\n0 2\n")
    (root / "p.json").write_text(json.dumps({"support": [[0, 0.7], [1, 0.3]]}))
    (root / "q.json").write_text(json.dumps({"support": [[1, 0.4], [2, 0.6]]}))
    (root / "heavy.json").write_text(json.dumps({"support": [[0, 0.5], [3, 0.5]]}))
    (root / "nan.json").write_text('{"support": [[0, NaN], [1, 1]]}')
    return root


_HOSTILE = st.sampled_from(["0", "-0", "1", "-1", "0.5", "1.5", "nan", "inf",
                            "-inf", "1e308", "-1e308", "5e-324", "x", "",
                            "0x10", "1,2", " ", "1e-3"])
_NUMBER = (_HOSTILE | st.floats(0.0, 1.0).map(repr) | st.floats().map(repr)
           | st.integers(-10**4, 10**4).map(str))
# magnitudes that keep every accepted run small: t <= 10^4, at most 12
# colours on the triangle (200 is over the state cap; a chain takes at most
# 4), eps >= 0.05, sigma <= 4 and B <= 8 (classical samples, proxy samples
# and l2 bands stay few)
_T = _HOSTILE | st.integers(-10**3, 10**4).map(str)
_K = _HOSTILE | st.integers(-3, 12).map(str) | st.just("200")
_CHAIN_K = _HOSTILE | st.integers(-3, 4).map(str)
_EPS = _HOSTILE.filter(lambda tok: tok != "1e-3") | st.floats(0.05, 2.0).map(repr)
_SIGMA = _HOSTILE | st.floats(-1.0, 4.0).map(repr)
_B = _HOSTILE | st.floats(0.5, 8.0).map(repr)
_MEAN_T = st.just("0") | st.integers(-10, 10**4).map(str) | _HOSTILE
_BETAS = st.lists(_NUMBER, max_size=4).map(",".join)
_MODEL = st.sampled_from(["ising", "colouring", "matching"])


@st.composite
def _argv(draw, root):
    cmd = draw(st.sampled_from(["ae-check", "model", "tvd", "mean", "chain"]))
    if cmd == "ae-check":
        return [cmd, f"--a={draw(_NUMBER)}", f"--t={draw(_T)}"]
    if cmd == "model":
        return [cmd, "--model", draw(_MODEL), "--graph",
                str(root / "triangle.txt"), f"--k={draw(_K)}",
                f"--betas={draw(_BETAS)}"]
    if cmd == "chain":
        return [cmd, "--model", draw(_MODEL), "--graph",
                str(root / "triangle.txt"), f"--k={draw(_CHAIN_K)}",
                f"--beta={draw(_NUMBER)}"]
    if cmd == "mean":
        dist = draw(st.sampled_from(["p.json", "heavy.json", "nan.json"]))
        return [cmd, "--dist", str(root / dist), "--method",
                draw(st.sampled_from(["bounded", "l2", "variance", "relative",
                                      "classical"])),
                f"--eps={draw(_EPS)}", f"--delta={draw(_NUMBER)}",
                f"--sigma={draw(_SIGMA)}", f"--B={draw(_B)}",
                f"--t={draw(_MEAN_T)}"]
    return [cmd, "--p", str(root / "p.json"), "--q", str(root / "q.json"),
            f"--eps={draw(_EPS)}", f"--delta={draw(_NUMBER)}"]


# partition and bench: B >= 1.5 and delta >= 0.01 keep accepted runs short
# (B near 1 means a long schedule); a tiny delta asks for thousands of
# repetitions per ratio, so it comes with B = 1e308, whose first estimate
# fails after the binomial-tail search has run
_PART_B = _HOSTILE | st.floats(1.5, 8.0).map(repr)
_PART_DELTA = _HOSTILE | st.floats(0.01, 1.0).map(repr)
_MODES = st.sampled_from(["ideal_sampling", "walk_idealized",
                          "walk_exact_sim", "classical"])
_TRIALS = _HOSTILE | st.integers(-2, 3).map(str)


@st.composite
def _partition_bench_argv(draw, root):
    if draw(st.booleans()):
        delta = draw(_PART_DELTA)
        big_b = delta == "5e-324"
        return ["partition", "--model", draw(_MODEL), "--graph",
                str(root / "triangle.txt"), f"--k={draw(_CHAIN_K)}",
                f"--B={'1e308' if big_b else draw(_PART_B)}",
                f"--eps={draw(_EPS)}", f"--delta={delta}",
                "--mode", draw(_MODES),
                *draw(st.sampled_from([[], ["--direction", "forward"],
                                       ["--direction", "reversed"]]))]
    dist = draw(st.sampled_from(["p.json", "heavy.json", "nan.json"]))
    name = draw(st.sampled_from(["eps", "delta", ""]))
    sweep = ",".join(draw(st.lists(_EPS, min_size=1, max_size=3)))
    return ["bench", "--dist", str(root / dist), "--method",
            draw(st.sampled_from(["bounded", "l2", "variance", "relative",
                                  "classical"])),
            f"--sweep={name}={sweep}", f"--trials={draw(_TRIALS)}",
            f"--sigma={draw(_SIGMA)}", f"--B={draw(_B)}"]


def _exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = err.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in text
    if code != 0:
        assert sum("error: " in line for line in text.splitlines()) == 1


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_fuzz_partition_and_bench_exit_cleanly(fuzz_files, data):
    _exits_cleanly(data.draw(_partition_bench_argv(fuzz_files)))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cli_fuzz_exits_cleanly(fuzz_files, data):
    _exits_cleanly(data.draw(_argv(fuzz_files)))
