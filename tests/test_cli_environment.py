"""The CLI's one-BLAS-thread default, and a library import that leaves the environment alone.

Every check runs in a fresh interpreter with an explicit environment, since
the default must be in place before numpy loads and only a new process shows
when numpy loads.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
LIBRARY = ("nmlab.channel", "nmlab.correlations", "nmlab.figures", "nmlab.nonmarkov",
           "nmlab.plotting", "nmlab.qmath", "nmlab.register", "nmlab.sweep", "nmlab.verify")

# Imports the modules named in argv[1] and reports, as JSON, whether numpy is
# loaded, what changed in os.environ, whether numpy was loaded when each
# *_NUM_THREADS variable was put (the os.putenv audit event; numpy puts
# OPENBLAS_MAIN_FREE itself). For the bare package it also reports which
# exports do not resolve to their module's object, and a submodule's name.
CHILD = """
import importlib, json, os, sys
before = dict(os.environ)
numpy_at_put = {}
sys.addaudithook(lambda event, args: event == "os.putenv"
                 and os.fsdecode(args[0]).endswith("_NUM_THREADS")
                 and numpy_at_put.setdefault(os.fsdecode(args[0]), "numpy" in sys.modules))
for module in sys.argv[1].split(","):
    importlib.import_module(module)
report = {
    "numpy": "numpy" in sys.modules,
    "numpy_at_put": numpy_at_put,
    "changed": {k: v for k, v in os.environ.items() if before.get(k) != v},
    "removed": sorted(before.keys() - os.environ.keys()),
}
if sys.argv[1] == "nmlab":
    nmlab = sys.modules["nmlab"]
    report["unresolved"] = [
        name for owner, names in nmlab.EXPORTS.items() for name in names
        if getattr(nmlab, name) is not getattr(importlib.import_module(f"nmlab.{owner}"), name)]
    report["submodule"] = nmlab.plotting.__name__
print(json.dumps(report))
"""


def child_report(modules, **env):
    out = subprocess.run([sys.executable, "-c", CHILD, ",".join(modules)],
                         env={"PYTHONPATH": SRC, **env}, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_package_import_loads_no_numpy_and_resolves_every_export():
    report = child_report(["nmlab"])
    assert report["numpy"] is False
    assert report["changed"] == {} and report["removed"] == [] and report["numpy_at_put"] == {}
    assert report["unresolved"] == []
    assert report["submodule"] == "nmlab.plotting"  # a submodule reached as an attribute


def test_library_imports_leave_the_environment_alone():
    report = child_report(LIBRARY)
    assert report["numpy"] is True  # the library really loaded
    assert report["changed"] == {} and report["removed"] == [] and report["numpy_at_put"] == {}


@pytest.mark.parametrize("env", [{}, {"OPENBLAS_NUM_THREADS": ""}, {"OMP_NUM_THREADS": " "}])
def test_cli_sets_one_blas_thread_before_numpy_loads(env):
    report = child_report(["nmlab.cli"], **env)
    assert report["changed"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    assert report["numpy_at_put"] == {"OPENBLAS_NUM_THREADS": False, "OMP_NUM_THREADS": False}
    assert report["numpy"] is True


@pytest.mark.parametrize("env", [{"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "3"},
                                 {"MKL_NUM_THREADS": "4"}])
def test_cli_keeps_a_callers_thread_count(env):
    report = child_report(["nmlab.cli"], **env)
    assert report["changed"] == {} and report["removed"] == [] and report["numpy_at_put"] == {}


def run_cli(args, cwd, **env):
    return subprocess.run([sys.executable, "-m", "nmlab.cli", *args], cwd=cwd,
                          env={"PYTHONPATH": SRC, **env}, capture_output=True, check=True).stdout


def test_thread_count_changes_no_output_bit(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"heatmap_p_step": 0.5, "heatmap_steps_per_unit": 10,
                                  "workers": 1}))
    csvs, measures = [], []
    for run, env in enumerate([{}, {"OPENBLAS_NUM_THREADS": "2"}]):
        out = tmp_path / f"run{run}"
        run_cli(["figure", "fig6", "--config", str(config), "--out", str(out)], tmp_path, **env)
        csvs.append((out / "fig6.csv").read_bytes())
        measures.append(run_cli(["measure", "blp", "--p", "0.6", "--scheme", "gates"],
                                tmp_path, **env))
    assert csvs[0] == csvs[1] and csvs[0].count(b"\n") > 2
    assert measures[0] == measures[1] and json.loads(measures[0])["value"] > 0
