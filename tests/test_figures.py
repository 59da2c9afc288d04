import dataclasses
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nmlab import cli
from nmlab.figures import FIG4_P_VALUES, FIG_IDS, FIGURES, RunConfig, p_grid, run_figure, write_csv
from nmlab.plotting import emit_plot, read_csv
from nmlab.register import BLOCK_SWAP, GATES_SWAP

FAST = dict(p_step=0.5, heatmap_p_step=0.5, heatmap_steps_per_unit=10)


# (field, value) pairs that RunConfig must refuse at construction
BAD_FIELDS = [
    ("steps_per_unit", 2.5), ("steps_per_unit", 0), ("heatmap_steps_per_unit", 2.5),
    ("heatmap_steps_per_unit", -1), ("p_step", 0.03), ("heatmap_p_step", 0),
    ("p_step", True), ("workers", -3), ("workers", 1.5),
    ("out_dir", 5), ("out_dir", None),
]
# Keys of earlier versions, now fixed constants in `sweep`, `nonmarkov` and
# `figures`: a config naming one is refused as an unknown key, whatever the value.
DROPPED_FIELDS = [
    ("coarse_theta", 0), ("coarse_phi", 12.5), ("refine_rounds", -1),
    ("rhp_eps", 0), ("svd_tol", -1e-10), ("threshold_cutoff", "x"), ("fig4_p_values", 0.5),
]
OLD_DEFAULTS = {"coarse_theta": 13, "coarse_phi": 25, "refine_rounds": 3,
                "rhp_eps": 1e-3, "svd_tol": 1e-10, "threshold_cutoff": 1e-7,
                "fig4_p_values": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]}
README = Path(__file__).resolve().parents[1] / "README.md"


def fast_config(tmp_path, **overrides):
    return RunConfig(**{**FAST, "out_dir": str(tmp_path), **overrides})


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = RunConfig(p_step=0.2, workers=3)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert RunConfig.from_file(path) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"p_steppp": 0.1})

    def test_hash_ignores_execution_fields(self):
        base = RunConfig()
        assert base.config_hash() == dataclasses.replace(base, workers=4, out_dir="/x").config_hash()
        assert base.config_hash() != dataclasses.replace(base, p_step=0.5).config_hash()

    def test_workers_env_default(self, monkeypatch):
        monkeypatch.setenv("NMLAB_WORKERS", "3")
        assert RunConfig().resolve_workers() == 3
        assert RunConfig(workers=2).resolve_workers() == 2
        monkeypatch.delenv("NMLAB_WORKERS")
        assert RunConfig().resolve_workers() == 1

    @pytest.mark.parametrize("field, value", BAD_FIELDS + DROPPED_FIELDS)
    def test_invalid_field_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            RunConfig.from_dict({field: value})

    @pytest.mark.parametrize("field, value", OLD_DEFAULTS.items())
    def test_dropped_key_rejected_at_its_old_default(self, field, value):
        with pytest.raises(ValueError, match=re.escape(f"unknown config keys: ['{field}']")):
            RunConfig.from_dict({field: value})

    def test_readme_lists_the_defaults(self):
        section = README.read_text().split("## Configuration", 1)[1]
        block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        assert json.loads(block) == RunConfig().to_dict()

    def test_readme_lists_the_figures(self):
        section = README.read_text().split("* `figure` writes", 1)[1].split("* `verify`", 1)[0]
        rows = re.findall(r"^ *\| `(\w+)` *\| `([\w,]+)`", section, re.M)
        assert rows == [(fig_id, ",".join(fig.columns)) for fig_id, fig in FIGURES.items()]

    def test_config_check_builds_no_grid(self):
        # the grid of a step of 1e-6 takes 8 MB; checking the step must not build it
        tracemalloc.start()
        try:
            RunConfig(p_step=1e-6, heatmap_p_step=1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("steps", [2.5, 0, -4, True])
    def test_default_grid_rejects_bad_steps(self, steps):
        for scheme in (BLOCK_SWAP, GATES_SWAP):
            with pytest.raises(ValueError, match="steps_per_unit"):
                scheme.times(steps)

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_workers_env_rejects_non_positive_integers(self, monkeypatch, value):
        monkeypatch.setenv("NMLAB_WORKERS", value)
        with pytest.raises(ValueError, match="NMLAB_WORKERS"):
            RunConfig().resolve_workers()

    def test_p_grid(self):
        assert np.allclose(p_grid(0.25), [0.0, 0.25, 0.5, 0.75, 1.0])
        for step in (0.01, 0.05, 0.2, 0.25):
            assert len(p_grid(step)) == round(1.0 / step) + 1

    @pytest.mark.parametrize("step", [0.0, -0.1, float("nan")])
    def test_p_grid_rejects_non_positive_step(self, step):
        with pytest.raises(ValueError, match="positive"):
            p_grid(step)

    @pytest.mark.parametrize("step", [0.03, 0.3, 2.0, float("inf"), 5e-324])
    def test_p_grid_rejects_step_not_dividing_one(self, step):
        with pytest.raises(ValueError, match="1/n"):
            p_grid(step)


class TestCsvFormat:
    def test_layout(self, tmp_path):
        path = write_csv(tmp_path / "x.csv", ["a", "b"], [(1.0, 0.5), (2.0, -0.0)], "meta")
        lines = path.read_text().splitlines()
        assert lines[0] == "# meta"
        assert lines[1] == "a,b"
        assert lines[2] == "1,0.5"
        assert lines[3] == "2,0"  # negative zero normalized
        assert path.read_text().endswith("\n")

    def test_twelve_significant_digits(self, tmp_path):
        path = write_csv(tmp_path / "x.csv", ["v"], [(1 / 3,)], "m")
        assert path.read_text().splitlines()[2] == "0.333333333333"


class TestFigures:
    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            run_figure("fig99")

    def test_fig2_schema_and_quiet_region(self, tmp_path):
        cfg = fast_config(tmp_path, p_step=0.1)
        (path,) = run_figure("fig2", cfg)
        header, data = read_csv(path)
        assert header == ["p", "N_blp", "N_rhp", "N_lfs"]
        assert data.shape == (11, 4)
        row = data[np.isclose(data[:, 0], 0.3)][0]
        assert np.all(row[1:] <= 1e-9)
        comment = path.read_text().splitlines()[0]
        assert cfg.config_hash() in comment
        assert "fig2" in comment

    @staticmethod
    def csv_bytes(tmp_path, fig_id, workers):
        return [run_figure(fig_id, fast_config(tmp_path / str(k), workers=w))[0].read_bytes()
                for k, w in enumerate(workers)]

    def test_fig2_deterministic_across_workers(self, tmp_path):
        a, b, c = self.csv_bytes(tmp_path, "fig2", (1, 1, 2))
        assert a == b == c

    @pytest.mark.parametrize("fig_id", ["fig3", "fig4"])
    def test_distance_figure_deterministic_across_workers(self, tmp_path, fig_id):
        # fig3 is one task and runs inline; fig4's six go to the pool
        a, b, c = self.csv_bytes(tmp_path, fig_id, (1, 1, 2))
        assert a == b == c

    @pytest.mark.parametrize("fig_id", ["fig5", "fig6", "fig7"])
    def test_heatmap_deterministic_across_workers(self, tmp_path, fig_id):
        # fig5 searches every sample, fig6 and fig7 carry different segments
        a, b = self.csv_bytes(tmp_path, fig_id, (1, 2))
        assert a == b

    @pytest.mark.parametrize("fig_id, workers, started", [
        pytest.param("fig2", 64, 3, id="64-3"), pytest.param("fig2", 2, 2, id="2-2"),
        pytest.param("fig4", 64, 6, id="fig4-64-6"),
    ])
    def test_pool_never_exceeds_the_tasks(self, tmp_path, monkeypatch, fig_id, workers, started):
        # fig2 at p_step 0.5 has three tasks, fig4 six; the fake pool maps in-process
        pools = []

        class FakePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
        run_figure(fig_id, fast_config(tmp_path, workers=workers))
        assert pools == [started]

    def test_fig2_inset_schema(self, tmp_path):
        (path,) = run_figure("fig2_inset", fast_config(tmp_path))
        header, data = read_csv(path)
        assert header == ["p", "N_blp"]
        # gate-by-gate back-flow is present even for the uncorrelated resource
        assert data[0, 1] == pytest.approx(0.5, abs=1e-6)

    def test_fig3_backflow_window(self, tmp_path):
        (path,) = run_figure("fig3", fast_config(tmp_path))
        header, data = read_csv(path)
        assert header == ["t", "D"]
        ts, d = data[:, 0], data[:, 1]
        assert ts[0] == 5.0
        assert d[0] == pytest.approx(1.0, abs=1e-9)
        rising = ts[1:][np.diff(d) > 1e-12]
        assert rising.size and rising.min() > 7.0

    def test_fig4_zero_resource_row(self, tmp_path):
        (path,) = run_figure("fig4", fast_config(tmp_path))
        header, data = read_csv(path)
        assert header == ["p", "t", "D"]
        assert tuple(np.unique(data[:, 0])) == FIG4_P_VALUES
        at_zero = data[data[:, 0] == 0.0]
        assert np.all(at_zero[:, 2] <= 1e-9)
        at_six = data[data[:, 0] == 0.6]
        assert at_six[-1, 2] == pytest.approx(0.6, abs=1e-9)

    def test_fig5_initially_uncorrelated(self, tmp_path):
        (path,) = run_figure("fig5", fast_config(tmp_path))
        header, data = read_csv(path)
        assert header == ["t", "p", "neg", "discord", "classical"]
        start = data[data[:, 0] == 0.0]
        assert np.all(np.abs(start[:, 2:]) <= 1e-9)

    def test_fig7_uses_plus_input(self, tmp_path):
        (path,) = run_figure("fig7", fast_config(tmp_path, heatmap_p_step=1.0))
        _, data = read_csv(path)
        early = data[(data[:, 1] == 1.0) & (data[:, 0] > 0.4) & (data[:, 0] < 0.6)]
        assert early.size and np.all(early[:, 2] > 1e-3)


class TestPlotting:
    def test_line_from_fig3(self, tmp_path):
        (csv_path,) = run_figure("fig3", fast_config(tmp_path))
        (svg,) = emit_plot(csv_path)
        text = svg.read_text()
        assert svg.suffix == ".svg"
        assert "<polyline" in text and "</svg>" in text

    def test_grouped_lines_from_fig4(self, tmp_path):
        (csv_path,) = run_figure("fig4", fast_config(tmp_path))
        (svg,) = emit_plot(csv_path)
        assert svg.read_text().count("<polyline") == len(FIG4_P_VALUES)

    def test_heatmaps_from_fig5(self, tmp_path):
        (csv_path,) = run_figure("fig5", fast_config(tmp_path))
        svgs = emit_plot(csv_path)
        assert [s.name for s in svgs] == [
            "fig5_neg.svg", "fig5_discord.svg", "fig5_classical.svg"
        ]
        assert all("<rect" in s.read_text() for s in svgs)

    def test_every_figure_plots_from_its_header(self, tmp_path):
        cfg = fast_config(tmp_path, p_step=1.0, heatmap_p_step=1.0, steps_per_unit=4,
                          heatmap_steps_per_unit=2)
        written = [svg.name for fig in FIG_IDS for csv_path in run_figure(fig, cfg)
                   for svg in emit_plot(csv_path)]
        heatmaps = [f"{fig}_{col}.svg" for fig in ("fig5", "fig6", "fig7")
                    for col in ("neg", "discord", "classical")]
        assert written == ["fig2.svg", "fig2_inset.svg", "fig3.svg", "fig4.svg"] + heatmaps

    def test_line_plots_keep_the_full_stem(self, tmp_path):
        # an inner dot is part of the name: two versions of one CSV give two SVGs
        (csv_path,) = run_figure("fig3", fast_config(tmp_path))
        versions = [csv_path.with_name(f"run.v{k}.csv") for k in (1, 2)]
        for path in versions:
            path.write_bytes(csv_path.read_bytes())
        written = [svg for path in versions for svg in emit_plot(path)]
        assert [svg.name for svg in written] == ["run.v1.svg", "run.v2.svg"]
        assert all(svg.exists() for svg in written)

    def test_deterministic_svg(self, tmp_path):
        (csv_path,) = run_figure("fig3", fast_config(tmp_path))
        a = emit_plot(csv_path)[0].read_bytes()
        b = emit_plot(csv_path)[0].read_bytes()
        assert a == b


class TestCli:
    def test_figure_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(FAST))
        code = cli.main([
            "figure", "fig3", "--config", str(cfg_path), "--out", str(tmp_path)
        ])
        assert code == 0
        assert (tmp_path / "fig3.csv").exists()

    def test_measure_command_json(self, capsys):
        code = cli.main(["measure", "blp", "--p", "0.8", "--scheme", "block"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(0.0159989, abs=1e-6)
        assert payload["scheme"] == {"interpolation": "block", "variant": "swap"}
        assert payload["grid"] == {"t0": 0.0, "t1": 1.0, "n": 201}
        assert cli.main(["measure", "lfs", "--p", "0.8", "--scheme", "gates"]) == 0
        grid = json.loads(capsys.readouterr().out)["grid"]
        assert grid == {"t0": 0.0, "t1": 8.0, "n": 1601}
        assert isinstance(grid["t0"], float) and isinstance(grid["t1"], float)

    def test_measure_e2_observation(self, capsys):
        code = cli.main([
            "measure", "blp", "--p", "0.5", "--scheme", "gates",
            "--variant", "bbc", "--observe", "e2",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(0.5, abs=1e-3)
        assert payload["scheme"] == {"interpolation": "gates", "variant": "bbc"}

    def test_observe_restricted_to_blp(self, capsys):
        code = cli.main([
            "measure", "rhp", "--p", "0.5", "--scheme", "block", "--observe", "e2"
        ])
        assert code == 2

    def test_gates_rhp_is_one_error_line(self, capsys):
        code = cli.main(["measure", "rhp", "--p", "0.6", "--scheme", "gates"])
        self._assert_one_error_line(code, capsys, "samples are singular")

    def test_unknown_figure_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["figure", "fig99"])
        assert exc.value.code == 2

    def test_plot_command_schema_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        code = cli.main(["plot", str(bad)])
        self._assert_one_error_line(code, capsys, f"{bad}: no plot schema matches columns")

    @pytest.mark.parametrize("rows, fragment", [
        ("1,nan\n2,0.5\n", "non-finite value"),
        ("1,0.5\n2,inf\n", "non-finite value"),
        ("1,0.5\n2,0.5,7\n", "malformed rows"),
        ("1,0.5\n2,x\n", "could not convert string to float: 'x'"),
    ], ids=["nan", "inf", "ragged", "non-numeric"])
    def test_plot_command_bad_csv(self, tmp_path, capsys, rows, fragment):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,D\n" + rows)
        code = cli.main(["plot", str(bad)])
        self._assert_one_error_line(code, capsys, f"{bad}: {fragment}")
        assert list(tmp_path.glob("*.svg")) == []

    def _assert_one_error_line(self, code, capsys, fragment):
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert fragment in err

    def test_bad_config_value_is_one_error_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"heatmap_p_step": 0}))
        code = cli.main(["figure", "fig6", "--config", str(cfg_path), "--out", str(tmp_path)])
        self._assert_one_error_line(code, capsys, "p step")

    @pytest.mark.parametrize("field, value", BAD_FIELDS + DROPPED_FIELDS)
    def test_bad_config_field_is_one_error_line(self, tmp_path, capsys, field, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({field: value}))
        code = cli.main(["figure", "fig3", "--config", str(cfg_path), "--out", str(tmp_path)])
        self._assert_one_error_line(code, capsys, field)

    @pytest.mark.parametrize("text", ["5", "null", "[1, 2]"])
    def test_config_not_an_object_is_one_error_line(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        code = cli.main(["figure", "fig2", "--config", str(cfg_path), "--out", str(tmp_path)])
        self._assert_one_error_line(code, capsys, "config must be a JSON object")

    @pytest.mark.parametrize("argv", [
        ["figure", "fig3", "--config"], ["verify", "--config"],
        ["measure", "lfs", "--p", "0.5", "--scheme", "block", "--config"],
        ["plot"],
    ], ids=["figure", "verify", "measure", "plot"])
    def test_directory_path_is_one_error_line(self, tmp_path, capsys, argv):
        code = cli.main(argv + [str(tmp_path)])
        self._assert_one_error_line(code, capsys, str(tmp_path))

    def test_verify_report_times_every_check(self, tmp_path, capsys):
        # a coarse p grid keeps the sweep short; the timing fields do not depend on it
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"p_step": 0.1}))
        cli.main(["verify", "--config", str(cfg_path), "--out", str(tmp_path)])
        report = json.loads((tmp_path / "verify_report.json").read_text())
        durations = [c["duration_s"] for c in report["checks"]] + [report["sweep_duration_s"]]
        assert len(durations) == 18
        assert all(isinstance(d, float) and d >= 0.0 for d in durations)
        assert "duration" not in capsys.readouterr().out

    def test_verify_bad_out_fails_before_any_check(self, tmp_path, capsys, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("")

        def run_all(cfg):
            raise AssertionError("a check ran before --out was made")
        monkeypatch.setattr(cli, "run_all", run_all)
        code = cli.main(["verify", "--out", str(blocker / "out")])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
        assert str(blocker) in out.err

    def test_negative_workers_flag_is_one_error_line(self, tmp_path, capsys):
        code = cli.main(["figure", "fig3", "--workers", "-3", "--out", str(tmp_path)])
        self._assert_one_error_line(code, capsys, "workers")

    def test_bad_workers_env_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NMLAB_WORKERS", "abc")
        code = cli.main(["figure", "fig3", "--out", str(tmp_path)])
        self._assert_one_error_line(code, capsys, "NMLAB_WORKERS")

    def test_bad_resource_parameter_is_one_error_line(self, capsys):
        code = cli.main(["measure", "lfs", "--p", "1.5", "--scheme", "block"])
        self._assert_one_error_line(code, capsys, "Werner")

    def test_allocation_failure_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # a grid too large for memory; raised by a stand-in, since whether a real
        # allocation of that size fails depends on the host's overcommit policy
        def run_figure(fig_id, cfg):
            raise MemoryError("Unable to allocate 8.00 TiB for an array")
        monkeypatch.setattr(cli, "run_figure", run_figure)
        code = cli.main(["figure", "fig2_inset", "--out", str(tmp_path)])
        self._assert_one_error_line(code, capsys, "Unable to allocate 8.00 TiB")
