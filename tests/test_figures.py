import json

import numpy as np
import pytest

from nmlab import cli
from nmlab.figures import RunConfig, p_grid, run_figure, write_csv
from nmlab.plotting import emit_plot, read_csv
from nmlab.register import BLOCK_SWAP, GATES_SWAP
from nmlab.sweep import default_grid

FAST = dict(p_step=0.5, heatmap_p_step=0.5, heatmap_steps_per_unit=10,
            fig4_p_values=(0.0, 0.5))


# (field, value) pairs that RunConfig must refuse at construction
BAD_FIELDS = [
    ("steps_per_unit", 2.5), ("steps_per_unit", 0), ("heatmap_steps_per_unit", 2.5),
    ("heatmap_steps_per_unit", -1), ("p_step", 0.03), ("heatmap_p_step", 0),
    ("fig4_p_values", [0.0, 1.2]), ("fig4_p_values", [-0.1]), ("fig4_p_values", 0.5),
    ("coarse_theta", 0), ("coarse_phi", 12.5), ("refine_rounds", -1),
    ("rhp_eps", 0), ("svd_tol", -1e-10), ("threshold_cutoff", "x"),
    ("workers", -3), ("workers", 1.5),
]


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
        assert base.config_hash() == base.replace(workers=4, out_dir="/x").config_hash()
        assert base.config_hash() != base.replace(p_step=0.5).config_hash()

    def test_workers_env_default(self, monkeypatch):
        monkeypatch.setenv("NMLAB_WORKERS", "3")
        assert RunConfig().resolve_workers() == 3
        assert RunConfig(workers=2).resolve_workers() == 2
        monkeypatch.delenv("NMLAB_WORKERS")
        assert RunConfig().resolve_workers() == 1

    @pytest.mark.parametrize("field, value", BAD_FIELDS)
    def test_invalid_field_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            RunConfig.from_dict({field: value})

    @pytest.mark.parametrize("steps", [2.5, 0, -4, True])
    def test_default_grid_rejects_bad_steps(self, steps):
        for scheme in (BLOCK_SWAP, GATES_SWAP):
            with pytest.raises(ValueError, match="steps_per_unit"):
                default_grid(scheme, steps)

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

    @pytest.mark.parametrize("step", [0.03, 0.3, 2.0, float("inf")])
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

    def test_fig2_deterministic_across_workers(self, tmp_path):
        blobs = []
        for sub, workers in (("a", 1), ("b", 1), ("c", 2)):
            cfg = fast_config(tmp_path / sub, workers=workers)
            (path,) = run_figure("fig2", cfg)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

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
        at_zero = data[data[:, 0] == 0.0]
        assert np.all(at_zero[:, 2] <= 1e-9)
        at_half = data[data[:, 0] == 0.5]
        assert at_half[-1, 2] == pytest.approx(0.5, abs=1e-9)

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
        (svg,) = emit_plot(csv_path, "line")
        text = svg.read_text()
        assert svg.suffix == ".svg"
        assert "<polyline" in text and "</svg>" in text

    def test_grouped_lines_from_fig4(self, tmp_path):
        (csv_path,) = run_figure("fig4", fast_config(tmp_path))
        (svg,) = emit_plot(csv_path, "line")
        assert svg.read_text().count("<polyline") == 2

    def test_heatmaps_from_fig5(self, tmp_path):
        (csv_path,) = run_figure("fig5", fast_config(tmp_path))
        svgs = emit_plot(csv_path, "heatmap")
        assert [s.name for s in svgs] == [
            "fig5_neg.svg", "fig5_discord.svg", "fig5_classical.svg"
        ]
        assert all("<rect" in s.read_text() for s in svgs)

    def test_schema_mismatch_rejected(self, tmp_path):
        (csv_path,) = run_figure("fig3", fast_config(tmp_path))
        with pytest.raises(ValueError):
            emit_plot(csv_path, "heatmap")

    def test_deterministic_svg(self, tmp_path):
        (csv_path,) = run_figure("fig3", fast_config(tmp_path))
        a = emit_plot(csv_path, "line")[0].read_bytes()
        b = emit_plot(csv_path, "line")[0].read_bytes()
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

    def test_measure_e2_observation(self, capsys):
        code = cli.main([
            "measure", "blp", "--p", "0.5", "--scheme", "gates",
            "--variant", "bbc", "--observe", "e2",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(0.5, abs=1e-3)

    def test_observe_restricted_to_blp(self, capsys):
        code = cli.main([
            "measure", "rhp", "--p", "0.5", "--scheme", "block", "--observe", "e2"
        ])
        assert code == 2

    def test_unknown_figure_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["figure", "fig99"])
        assert exc.value.code == 2

    def test_plot_command_schema_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert cli.main(["plot", str(bad), "--kind", "heatmap"]) == 2

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

    @pytest.mark.parametrize("field, value", BAD_FIELDS)
    def test_bad_config_field_is_one_error_line(self, tmp_path, capsys, field, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({field: value}))
        code = cli.main(["figure", "fig3", "--config", str(cfg_path), "--out", str(tmp_path)])
        self._assert_one_error_line(code, capsys, field)

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
