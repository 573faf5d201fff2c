import csv
import io
import json
import math

import pytest
from click.testing import CliRunner

from ouchaos import cli, evolution
from ouchaos.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return header, [dict(zip(header, row)) for row in body]


CONSTANT_MODEL = {"inline": {"rates": [-1.0, -1.0], "noise_consts": [1.0, 1.0]}}


class TestConstantModelsSkipQuadrature:
    """Constant-coefficient models get Q(t,s) in closed form: panel
    quadrature never runs while they are built or swept."""

    MODELS = {
        "heat1d": {"preset": "heat1d", "params": {"gamma_exp": 0.25, "dim": 3}},
        "malliavin_const": {"preset": "malliavin_const", "params": {
            "rate_const": -0.8, "noise_consts": [1.0, 0.7, 1.2]}},
        "inline": CONSTANT_MODEL,
        "diag_arctan": {"preset": "diag_arctan", "params": {"dim": 2}},
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_panel_integrate_runs_only_for_diag_arctan(self, name, runner,
                                                       tmp_path, monkeypatch):
        calls = []

        def refuse(*args, **kwargs):
            calls.append(args[1:3])
            raise RuntimeError("panel quadrature called")

        monkeypatch.setattr(evolution, "panel_integrate", refuse)
        sweep = {"s": [-0.5, 0.0], "t": [0.4, 1.5]}
        configs = {
            "hyper-scan": {"sweep": dict(sweep, p=[2.0, 3.5])},
            "decay": {"sweep": sweep, "f": {"kind": "coordinate", "index": 1}},
            "hs-table": {"sweep": sweep, "max_degree": 20},
        }
        codes = []
        for cmd, cfg in configs.items():
            path = write_config(tmp_path, cmd + ".json",
                                dict(cfg, model=self.MODELS[name]))
            codes.append(runner.invoke(main, [cmd, "--config", path]).exit_code)
        if name == "diag_arctan":
            assert calls and codes == [1, 1, 1]
        else:
            assert not calls and codes == [0, 0, 0]


class TestVerify:
    def test_default_config_passes(self, runner):
        result = runner.invoke(main, ["verify"])
        assert result.exit_code == 0
        assert "passed 18/18" in result.output
        assert "FAIL" not in result.output

    def test_noncontractive_case_exits_one(self, runner, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {
            "contractions": [{"mu": [1.0, 1.0], "nu": [1.0, 1.0],
                              "matrix": [[1.2, 0.0], [0.0, 0.5]]}]})
        result = runner.invoke(main, ["verify", "--config", cfg])
        assert result.exit_code == 1
        assert "NotContraction" in result.output

    def test_report_file(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["verify", "--out", str(out)])
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        assert report["status"] == "ok"
        assert report["failed"] == 0
        assert len(report["checks"]) == 18

    def test_largest_seed_passes(self, runner):
        result = runner.invoke(main, ["verify", "--seed", str(2 ** 64 - 1)])
        assert result.exit_code == 0, result.output
        assert "passed 18/18" in result.output

    def test_malformed_json_exits_two(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"model": ')
        result = runner.invoke(main, ["verify", "--config", str(path)])
        assert result.exit_code == 2
        assert "malformed JSON" in result.stderr

    def test_unknown_key_exits_two(self, runner, tmp_path):
        cfg = write_config(tmp_path, "extra.json", {"modle": {}})
        result = runner.invoke(main, ["verify", "--config", cfg])
        assert result.exit_code == 2
        assert "unknown config keys: modle" in result.stderr


class TestHyperScan:
    def test_constant_model_threshold_column(self, runner, tmp_path):
        cfg = write_config(tmp_path, "scan.json", {
            "model": CONSTANT_MODEL,
            "sweep": {"s": [0.0], "t": [0.0, 0.5, 1.0, 2.0], "p": [2.0]}})
        result = runner.invoke(main, ["hyper-scan", "--config", cfg])
        assert result.exit_code == 0
        header, rows = parse_csv(result.output)
        assert header == ["s", "t", "p", "norm_U", "q0",
                          "witness_diverges_at"]
        for row in rows:
            gap = float(row["t"]) - float(row["s"])
            q0 = float(row["q0"])
            assert q0 == pytest.approx(1.0 + math.exp(2.0 * gap), rel=1e-12)
            assert float(row["witness_diverges_at"]) <= q0 + 1e-9
        assert float(rows[0]["q0"]) == pytest.approx(2.0)

    def test_unknown_sweep_key_exits_two(self, runner, tmp_path):
        cfg = write_config(tmp_path, "scan.json", {
            "model": CONSTANT_MODEL, "sweep": {"s": [0.0], "gap": [1.0]}})
        result = runner.invoke(main, ["hyper-scan", "--config", cfg])
        assert result.exit_code == 2
        assert "unknown sweep keys: gap" in result.stderr


class TestDecay:
    def test_constant_function_gives_zero_column(self, runner, tmp_path):
        cfg = write_config(tmp_path, "decay.json", {
            "model": CONSTANT_MODEL,
            "sweep": {"s": [0.0], "t": [0.5, 1.0]},
            "f": {"kind": "constant", "value": 3.0}})
        result = runner.invoke(main, ["decay", "--config", cfg])
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert rows
        for row in rows:
            assert float(row["decay_ratio_p2"]) == pytest.approx(0.0,
                                                                 abs=1e-10)

    def test_degree_one_ratio_matches_norm(self, runner, tmp_path):
        cfg = write_config(tmp_path, "decay.json", {
            "model": CONSTANT_MODEL,
            "sweep": {"s": [0.0], "t": [1.0]},
            "f": {"kind": "coordinate", "index": 0}})
        result = runner.invoke(main, ["decay", "--config", cfg])
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        row = rows[0]
        assert float(row["decay_ratio_p2"]) == pytest.approx(
            float(row["norm_U_cm"]), abs=1e-8)
        assert float(row["tail_cert"]) < 1e-9

    def test_heat1d_at_dim_six_is_exact(self, runner, tmp_path):
        cfg = write_config(tmp_path, "decay.json", {
            "model": {"preset": "heat1d",
                      "params": {"gamma_exp": 0.25, "dim": 6}},
            "sweep": {"s": [0.0], "t": [0.5]},
            "f": {"kind": "coordinate", "index": 0}})
        result = runner.invoke(main, ["decay", "--config", cfg])
        assert result.exit_code == 0, result.output
        _, rows = parse_csv(result.output)
        assert float(rows[0]["decay_ratio_p2"]) == pytest.approx(
            math.exp(-0.5), abs=1e-12)

    def test_monte_carlo_reruns_are_byte_identical(self, runner, tmp_path):
        cfg = write_config(tmp_path, "decay.json", {
            "sweep": {"s": [0.0], "t": [0.5, 1.0]},
            "f": {"kind": "monomial", "powers": [2, 1, 0]},
            "scheme": {"kind": "monte_carlo", "samples": 5000}})
        runs = [runner.invoke(main, ["decay", "--config", cfg, "--seed", seed])
                for seed in ("11", "11", "12")]
        assert all(r.exit_code == 0 for r in runs)
        assert runs[0].output == runs[1].output
        assert runs[0].output != runs[2].output

    def test_nondecaying_inline_model_exits_one(self, runner, tmp_path):
        cfg = write_config(tmp_path, "decay.json", {
            "model": {"inline": {"rates": [0.5]}},
            "sweep": {"s": [0.0], "t": [1.0]}})
        result = runner.invoke(main, ["decay", "--config", cfg])
        assert result.exit_code == 1
        assert "NoDecay" in result.stderr

    def test_bad_function_index_exits_two(self, runner, tmp_path):
        cfg = write_config(tmp_path, "decay.json", {
            "model": CONSTANT_MODEL,
            "sweep": {"s": [0.0], "t": [1.0]},
            "f": {"kind": "coordinate", "index": 7}})
        result = runner.invoke(main, ["decay", "--config", cfg])
        assert result.exit_code == 2


class TestHsTable:
    def test_half_scaling_closed_form(self, runner, tmp_path):
        cfg = write_config(tmp_path, "hs.json", {
            "contractions": [{"mu": [1.0, 1.0], "nu": [1.0, 1.0],
                              "matrix": [[0.5, 0.0], [0.0, 0.5]]}],
            "max_degree": 40})
        result = runner.invoke(main, ["hs-table", "--config", cfg])
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        row = rows[0]
        assert float(row["closed_form"]) == pytest.approx(4.0 / 3.0,
                                                          rel=1e-14)
        assert float(row["partial"]) == pytest.approx(4.0 / 3.0, abs=1e-6)
        assert float(row["paper_form"]) == pytest.approx(
            (1.0 - 0.5 ** 4) ** -2, rel=1e-12)

    def test_model_sweep_rows(self, runner, tmp_path):
        cfg = write_config(tmp_path, "hs.json", {
            "model": CONSTANT_MODEL,
            "sweep": {"s": [0.0], "t": [0.5, 1.5]},
            "max_degree": 30})
        result = runner.invoke(main, ["hs-table", "--config", cfg])
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        for row in rows:
            gap = float(row["t"]) - float(row["s"])
            assert float(row["top_singular"]) == pytest.approx(
                math.exp(-gap), abs=1e-9)
            assert float(row["partial"]) <= float(row["closed_form"]) + 1e-9

    def test_out_of_memory_exits_one_without_a_traceback(self, runner,
                                                         monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("cannot allocate the degree table")

        monkeypatch.setattr(cli, "hs_norm_gamma", exhausted)
        result = runner.invoke(main, ["hs-table"])
        assert result.exit_code == 1
        assert result.stderr.strip() == ("failure: MemoryError: cannot "
                                         "allocate the degree table")


class TestMehlerDemo:
    def test_deviation_under_tolerance(self, runner, tmp_path):
        cfg = write_config(tmp_path, "mehler.json", {
            "measure": [1.0, 0.5], "t": [0.1, 0.5, 1.0],
            "f": {"kind": "monomial", "powers": [2, 1]},
            "points": 4, "nodes": 20})
        result = runner.invoke(main, ["mehler-demo", "--config", cfg])
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert len(rows) == 3
        for row in rows:
            assert float(row["c"]) == pytest.approx(
                math.exp(-float(row["t"])), rel=1e-12)
            assert float(row["max_abs_dev"]) < 1e-8

    def test_negative_seed_exits_two(self, runner):
        result = runner.invoke(main, ["mehler-demo", "--seed", "-1"])
        assert result.exit_code == 2
        assert "--seed" in result.output

    def test_negative_time_exits_two(self, runner, tmp_path):
        cfg = write_config(tmp_path, "mehler.json", {"t": [-1.0]})
        result = runner.invoke(main, ["mehler-demo", "--config", cfg])
        assert result.exit_code == 2


HEAT1D = {"preset": "heat1d", "params": {"gamma_exp": 0.25, "dim": 3}}
SHORT_SWEEP = {"s": [0.0], "t": [0.5]}
ILL_TYPED_CONFIGS = {
    "index_list": ("decay", {"sweep": SHORT_SWEEP,
                             "f": {"kind": "coordinate", "index": [0]}}),
    "samples_list": ("decay", {"sweep": SHORT_SWEEP, "scheme": {
        "kind": "monte_carlo", "samples": [5]}}),
    "tolerance_string": ("decay", {"sweep": SHORT_SWEEP, "scheme": {
        "kind": "gauss_hermite", "tolerance": "x"}}),
    "preset_param_list": ("hyper-scan", {"sweep": SHORT_SWEEP, "model": {
        "preset": "diag_arctan", "params": {"c1": [1]}}}),
    "samples_fraction": ("decay", {"sweep": SHORT_SWEEP, "scheme": {
        "kind": "monte_carlo", "samples": 1000.7}}),
    "dim_fraction": ("decay", {"sweep": SHORT_SWEEP, "model": {
        "preset": "heat1d", "params": {"dim": 2.7}}}),
    "max_degree_bool": ("hs-table", {"sweep": SHORT_SWEEP, "model": HEAT1D,
                                     "max_degree": True}),
    "points_bool": ("mehler-demo", {"t": [0.5], "points": True}),
    "matrix_strings": ("hs-table", {"contractions": [
        {"matrix": [["0.5", "0"], ["0", "0.5"]]}]}),
    "t_infinity": ("decay", {"model": HEAT1D,
                             "sweep": {"s": [0.0], "t": [math.inf]}}),
    "t_huge_integer": ("decay", {"model": HEAT1D,
                                 "sweep": {"s": [0.0], "t": [10 ** 400]}}),
    "rates_nan": ("decay", {"sweep": SHORT_SWEEP,
                            "model": {"inline": {"rates": [math.nan]}}}),
    "dim_zero": ("decay", {"sweep": SHORT_SWEEP, "model": {
        "preset": "heat1d", "params": {"dim": 0}}}),
    "gamma_exp_range": ("decay", {"sweep": SHORT_SWEEP, "model": {
        "preset": "heat1d", "params": {"gamma_exp": 1.5}}}),
    "out_list": ("hs-table", {"sweep": SHORT_SWEEP, "model": HEAT1D,
                              "out": ["table.csv"]}),
    "tolerance_negative": ("decay", {"sweep": SHORT_SWEEP, "scheme": {
        "kind": "gauss_hermite", "nodes": 6, "tolerance": -1}}),
    "tolerance_zero": ("decay", {"sweep": SHORT_SWEEP, "scheme": {
        "kind": "gauss_hermite", "tolerance": 0}}),
    "tolerance_monte_carlo_negative": ("decay", {"sweep": SHORT_SWEEP, "scheme": {
        "kind": "monte_carlo", "samples": 2000, "tolerance": -1}}),
    # decay's chaos projection forms no Monte Carlo standard error to hold
    "tolerance_monte_carlo": ("decay", {"sweep": SHORT_SWEEP, "scheme": {
        "kind": "monte_carlo", "samples": 2000, "tolerance": 1e-12}}),
}


@pytest.mark.parametrize("name", sorted(ILL_TYPED_CONFIGS))
def test_ill_typed_config_value_exits_two(name, runner, tmp_path):
    """Wrong JSON types, booleans or fractions for integers, NaN and
    Infinity, preset parameters out of range, a tolerance <= 0 and a
    tolerance under monte_carlo are config errors."""
    cmd, payload = ILL_TYPED_CONFIGS[name]
    cfg = write_config(tmp_path, "cfg.json", payload)
    result = runner.invoke(main, [cmd, "--config", cfg])
    assert result.exit_code == 2, result.output
    assert "config error" in result.stderr


class TestOutputFormat:
    def test_crlf_and_seventeen_digits(self, runner, tmp_path):
        cfg = write_config(tmp_path, "scan.json", {
            "model": CONSTANT_MODEL,
            "sweep": {"s": [0.0], "t": [0.5], "p": [2.0]}})
        out = tmp_path / "scan.csv"
        result = runner.invoke(main, ["hyper-scan", "--config", cfg,
                                      "--out", str(out)])
        assert result.exit_code == 0
        data = out.read_bytes()
        assert data.count(b"\r\n") == 2
        text = data.decode("ascii")
        cell = text.splitlines()[1].split(",")[3]
        assert cell == format(math.exp(-0.5), ".17g")

    def test_byte_identical_reruns(self, runner, tmp_path):
        cfg = write_config(tmp_path, "decay.json", {
            "model": {"preset": "diag_arctan",
                      "params": {"c1": 1.0, "c2": 2.0, "dim": 2}},
            "sweep": {"s": [0.0], "t": [0.5, 1.0]},
            "f": {"kind": "monomial", "powers": [1, 1]},
            "scheme": {"kind": "monte_carlo", "samples": 20000}})
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            result = runner.invoke(main, ["decay", "--config", cfg, "--seed",
                                          "7", "--out", str(out)])
            assert result.exit_code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_threads_flag_does_not_change_output(self, runner, tmp_path):
        cfg = write_config(tmp_path, "scan.json", {
            "model": CONSTANT_MODEL,
            "sweep": {"s": [0.0], "t": [1.0], "p": [2.0, 4.0]}})
        blobs = []
        for threads in ("1", "4"):
            out = tmp_path / ("scan%s.csv" % threads)
            result = runner.invoke(main, ["hyper-scan", "--config", cfg,
                                          "--threads", threads,
                                          "--out", str(out)])
            assert result.exit_code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
