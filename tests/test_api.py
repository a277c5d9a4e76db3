"""The public surface: every exported name resolves, deleted names stay gone.

A plain import does not catch a stale ``__all__`` entry (``from m import *``
fails only when it is used), nor a package-level name that its module no
longer declares public.
"""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qmcs
from qmcs.amplitude import ae_sample
from qmcs.outcome import QueryLedger

MODULES = sorted(info.name for info in pkgutil.iter_modules(qmcs.__path__)
                 if info.name != "__main__")

# removed as unused, duplicated or pass-through, or kept only as test
# oracles; each must stay out of every module and of the package
DELETED_NAMES = ("EstimatorConfig", "PhasePoint", "StabilityBound",
                 "make_lazy", "quantum_sample_state", "classical_sample",
                 "moments", "_lambda1", "_LAW_CACHE", "_LAW_CACHE_SIZE",
                 "mix_sample", "mixing_steps", "_mix_sampled_mean",
                 "_kernel", "_circle_dist", "_ratio_values",
                 "ReflectionSpec", "TvdInstance", "median_laws", "_inner_laws")
DELETED_PARAMETERS = {
    "walk.ApproxReflection": ("walk", "spec"),
    "walk.approx_reflection": ("spec",),
    "walk.reflection_cost": ("c_r",),
    "walk.warm_start_cost": ("c_s",),
    "walk.warm_start_prepare": ("c_s", "B"),
    "mean.estimate_mean_l2": ("D",),
    "mean.t_for_additive_error": ("C",),
    "amplitude.interval_coverage": ("halfwidth",),
    "outcome.QueryLedger": ("state_copies",),
    "outcome.truncate": ("mode", "x", "y"),
    "chains.MarkovChain": ("lazy",),
    "partition.classical_baseline": ("sampling",),
    **{f"validate.criterion_{cid}": ("trials",)
       for cid in (2, 3, 4, 5, 8, 10, 11)},
}
# each defined once, in the first module; the others only import it
ONE_HOME = {"median_law": ("outcome", "tvd"),
            "_median_laws": ("outcome", "amplitude"),
            "_ae_median_laws": ("amplitude", "tvd"),
            "_ae_uniforms": ("amplitude", "mean"),
            "binom_upper_tail": ("outcome", "mean"),
            "_median_from_uniforms": ("amplitude", "mean", "tvd"),
            "discriminant_matrix": ("chains", "walk"),
            "chebyshev_ratio": ("gibbs", "partition")}


def _package_imports():
    """(module, name) for every ``from .module import name`` in qmcs/__init__."""
    tree = ast.parse(Path(qmcs.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module for alias in node.names]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"qmcs.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []


def test_package_names_resolve_and_are_declared():
    for module_name, name in _package_imports():
        module = importlib.import_module(f"qmcs.{module_name}")
        assert hasattr(qmcs, name)
        assert name in module.__all__, f"{module_name}.{name} not in __all__"


@pytest.mark.parametrize("name", DELETED_NAMES)
def test_deleted_name_not_exported(name):
    assert not hasattr(qmcs, name)
    for module_name in MODULES:
        module = importlib.import_module(f"qmcs.{module_name}")
        assert not hasattr(module, name)
        assert name not in getattr(module, "__all__", [])


@pytest.mark.parametrize("target", sorted(DELETED_PARAMETERS))
def test_deleted_parameter_gone(target):
    module_name, attr = target.split(".")
    obj = getattr(importlib.import_module(f"qmcs.{module_name}"), attr)
    params = inspect.signature(obj).parameters
    assert not set(DELETED_PARAMETERS[target]) & set(params)


@pytest.mark.parametrize("name", sorted(ONE_HOME))
def test_one_home_per_function(name):
    home, *users = ONE_HOME[name]
    fn = getattr(importlib.import_module(f"qmcs.{home}"), name)
    assert fn.__module__ == f"qmcs.{home}"
    for user in users:
        module = importlib.import_module(f"qmcs.{user}")
        assert getattr(module, name, fn) is fn
        assert name not in module.__all__


def test_traced_layers_resolve():
    # the benchmark's tracer wraps module.fn for each entry of its LAYERS
    # table and fails at start-up if one is missing; read, not imported
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    [layers] = [node.value for node in ast.parse(tracer.read_text()).body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]]
    missing = [f"{mod}.{fn}" for mod, fns in ast.literal_eval(layers).items()
               for fn in fns
               if not callable(getattr(importlib.import_module(f"qmcs.{mod}"), fn, None))]
    assert missing == []


def test_ae_sample_has_one_return_shape():
    # size has no default, and one draw is a list of one float
    size = inspect.signature(ae_sample).parameters["size"]
    assert size.default is inspect.Parameter.empty
    draws = ae_sample(0.3, 25, np.random.default_rng(0), QueryLedger(), size=1)
    assert type(draws) is list and [type(v) for v in draws] == [float]


def _fresh_python(code):
    """Run code in a fresh interpreter on this source tree; its stdout."""
    src = str(Path(qmcs.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_loads_no_scipy():
    # scipy serves only the tests, and scipy.stats alone takes over a second
    # to import, most of a CLI call.  A fresh interpreter shows every module
    # the import pulls in.
    out = _fresh_python(
        "import sys, qmcs, qmcs.cli; "
        "print(' '.join(m for m in sys.modules if m.startswith('scipy')))")
    assert out.split() == []  # so no scipy.stats, scipy.special or scipy.linalg


def test_cli_runs_without_scipy(tmp_path):
    # the dense walk and circuit oracles need numpy alone: with scipy
    # unimportable, walk-check and criteria 1 and 9 used to end in an
    # ImportError
    graph = tmp_path / "k2.txt"
    graph.write_text("2 1\n0 1\n")
    out = _fresh_python(f"""
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{{name}} is blocked")

sys.meta_path.insert(0, NoScipy())
from qmcs.cli import main
from qmcs.validate import validate_suite

code = main(["walk-check", "--model", "ising", "--graph", {str(graph)!r},
             "--out", {str(tmp_path / "walk.json")!r}])
print(code, validate_suite("1,9")["ok"])
""")
    assert out.split() == ["0", "True"]
    assert json.loads((tmp_path / "walk.json").read_text())["phase_gap"] > 0


def test_readme_quick_example_runs(capsys):
    # README's "Quick example" block, read from README.md and run as
    # written, so that an API change cannot leave it stale
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## Quick example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    value, uses = capsys.readouterr().out.split()
    assert abs(float(value) - 0.25) <= 0.01 and int(uses) > 0
