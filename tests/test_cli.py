import json
import math

import pytest

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


def test_output_file_option(capsys, bernoulli, tmp_path):
    out_path = tmp_path / "result.json"
    code = main(["mean", "--dist", bernoulli, "--out", str(out_path)])
    assert code == 0
    assert json.loads(out_path.read_text())["schema"] == 1
