import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from zonoridge import cli
from zonoridge.cli import (
    OPTIONS,
    ExperimentConfig,
    apply_overrides,
    build_parser,
    cmd_certify,
    cmd_lambda_sweep,
    cmd_loss_range,
    cmd_oracle_check,
    cmd_params,
    load_config,
    main,
)
from zonoridge.inference import LossInterval


def write_regression_csv(path, n=40, d_feat=2, seed=0, noise=0.05):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 2, size=(n, d_feat))
    w = rng.uniform(-2, 2, size=d_feat)
    y = 1.5 + X @ w + noise * rng.standard_normal(n)
    header = [f"f{i}" for i in range(d_feat)] + ["target"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(n):
            cells = [repr(float(v)) for v in X[i]] + [repr(float(y[i]))]
            fh.write(",".join(cells) + "\n")
    return str(path)


@pytest.fixture
def data_csv(tmp_path):
    return write_regression_csv(tmp_path / "reg.csv")


def base_config(data_csv, out_dir, **kw):
    cfg = ExperimentConfig(
        dataset_path=data_csv,
        label_column="target",
        out_dir=str(out_dir),
        seeds=[1, 2],
        percentage=0.2,
        radius=0.05,
        lam=0.02,
        oracle_samples=100,
    )
    for key, val in kw.items():
        setattr(cfg, key, val)
    cfg.validate()
    return cfg


class TestCertify:
    def test_zero_radius_fully_robust(self, data_csv, tmp_path):
        cfg = base_config(data_csv, tmp_path / "out", radius=0.0)
        report, _ = cmd_certify(cfg)
        for row in report.rows:
            assert row["ratio"] == 1.0
            assert row["baseline_ratio"] == 1.0

    def test_label_only_dominates_baseline_on_grid(self, data_csv, tmp_path):
        cfg = base_config(
            data_csv, tmp_path / "out",
            radius_grid=[0.02, 0.05, 0.1, 0.2], threshold=0.02,
        )
        report, _ = cmd_certify(cfg)
        assert len(report.rows) == 2 * 4
        for row in report.rows:
            assert row["ratio"] >= row["baseline_ratio"] - 1e-12

    def test_summary_stats_recomputable(self, data_csv, tmp_path):
        cfg = base_config(data_csv, tmp_path / "out", radius_grid=[0.05])
        report, _ = cmd_certify(cfg)
        ratios = [r["ratio"] for r in report.rows]
        entry = report.summary[0]
        assert entry["ratio_mean"] == pytest.approx(np.mean(ratios))
        if len(ratios) > 1:
            assert entry["ratio_std"] == pytest.approx(np.std(ratios, ddof=1))
        assert entry["ratio_3sigma"] == pytest.approx(3 * entry["ratio_std"])


class TestDeterminism:
    def test_byte_identical_csv(self, data_csv, tmp_path):
        args = [
            "certify", "--dataset", data_csv, "--label", "target",
            "--seeds", "1,2", "--radius", "0.05", "--percentage", "0.2",
            "--lambda", "0.02", "--threshold", "0.05",
        ]
        assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
        assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
        for name in ("certify_results.csv", "certify_summary.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b and len(a) > 0

    @pytest.mark.parametrize("command", ["certify", "loss-range", "lambda-sweep", "oracle-check"])
    def test_parallel_matches_serial(self, data_csv, tmp_path, command):
        common = [
            command, "--dataset", data_csv, "--label", "target", "--target", "both",
            "--seeds", "1,2,3", "--radius", "0.05", "--percentage", "0.1",
            "--lambda", "0.02", "--oracle-samples", "30",
        ]
        assert main(common + ["--jobs", "1", "--out-dir", str(tmp_path / "ser")]) == 0
        assert main(common + ["--jobs", "4", "--out-dir", str(tmp_path / "par")]) == 0
        for name in ("results", "summary"):
            serial = (tmp_path / "ser" / f"{command}_{name}.csv").read_bytes()
            assert serial == (tmp_path / "par" / f"{command}_{name}.csv").read_bytes()
            assert serial


class TestLossRange:
    def test_certain_data_collapses(self, data_csv, tmp_path):
        cfg = base_config(data_csv, tmp_path / "out", radius=0.0, percentage=0.0)
        report, _ = cmd_loss_range(cfg)
        for row in report.rows:
            assert row["zono_lo"] == pytest.approx(row["zono_hi"], rel=1e-9)
            assert row["gt_lo"] == pytest.approx(row["zono_lo"], rel=1e-9)
            assert row["contained"] == 1

    def test_gt_contained_every_row(self, data_csv, tmp_path):
        cfg = base_config(
            data_csv, tmp_path / "out", target="both", percentage=0.08,
            radius_grid=[0.02, 0.05, 0.08], oracle_budget=4096,
        )
        report, _ = cmd_loss_range(cfg)
        for row in report.rows:
            assert row["contained"] == 1

    def test_sampling_fallback_when_enumeration_over_budget(self, data_csv, tmp_path):
        cfg = base_config(
            data_csv, tmp_path / "out", percentage=0.3, oracle_budget=16,
            seeds=[1], oracle_samples=50,
        )
        report, _ = cmd_loss_range(cfg)
        assert all(r["gt_mode"] == "sampling_fallback" for r in report.rows)
        assert report.notes
        assert all(r["contained"] == 1 for r in report.rows)


class TestLambdaSweep:
    def test_single_lambda_single_row_per_seed(self, data_csv, tmp_path):
        cfg = base_config(data_csv, tmp_path / "out", lambda_grid=[0.1], seeds=[3])
        report, _ = cmd_lambda_sweep(cfg)
        assert len(report.rows) == 1
        assert report.rows[0]["lambda"] == 0.1

    def test_best_lambda_flagged(self, data_csv, tmp_path):
        cfg = base_config(
            data_csv, tmp_path / "out",
            lambda_grid=[0.0, 0.01, 0.05, 0.2], seeds=[1, 2],
        )
        report, _ = cmd_lambda_sweep(cfg)
        assert sum(e["best_worst_case_loss"] for e in report.summary) == 1


class TestOracleCheck:
    def test_passes_on_synthetic(self, data_csv, tmp_path):
        cfg = base_config(data_csv, tmp_path / "out", target="both", percentage=0.1)
        report, ok = cmd_oracle_check(cfg)
        assert ok
        assert report.summary[0]["weight_failures"] == 0

    def test_exit_code_zero(self, data_csv, tmp_path):
        rc = main([
            "oracle-check", "--dataset", data_csv, "--label", "target",
            "--seeds", "1", "--radius", "0.05", "--percentage", "0.1",
            "--lambda", "0.02", "--oracle-samples", "50",
            "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 0

    def test_zero_radius_completes_and_passes(self, data_csv, tmp_path):
        # Every data symbol has a zero coefficient: the corners are one world.
        cfg = base_config(data_csv, tmp_path / "out", radius=0.0, target="both", percentage=0.5)
        report, ok = cmd_oracle_check(cfg)
        assert ok
        assert [r["worlds"] for r in report.rows] == [cfg.oracle_samples + 1] * 2

    def test_zero_radius_exit_code_zero(self, data_csv, tmp_path):
        rc = main([
            "oracle-check", "--dataset", data_csv, "--label", "target",
            "--seeds", "1", "--radius", "0", "--target", "both", "--percentage", "0.5",
            "--lambda", "0.02", "--oracle-samples", "20",
            "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 0


class TestSoundnessFailures:
    """A containment failure writes the report and exits 3."""

    def args(self, command, data_csv, tmp_path):
        return [command, "--dataset", data_csv, "--label", "target", "--seeds", "1,2",
                "--percentage", "0.2", "--lambda", "0.02", "--oracle-samples", "20",
                "--out-dir", str(tmp_path / "out")]

    def test_oracle_check_reports_failed_worlds(self, data_csv, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "contains_world_weights", lambda *args, **kwargs: False)
        assert main(self.args("oracle-check", data_csv, tmp_path)) == 3
        summary = next(csv.DictReader(open(tmp_path / "out" / "oracle-check_summary.csv")))
        worlds = summary["worlds_total"]
        assert int(worlds) > 0 and summary["weight_failures"] == worlds and summary["passed"] == "0"
        assert capsys.readouterr().out.splitlines()[-1] == f"oracle-check: FAIL ({worlds} worlds)"

    def test_loss_range_reports_violated_containment(self, data_csv, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "loss_interval", lambda *args: LossInterval(0.0, 0.0, "ridge"))
        assert main(self.args("loss-range", data_csv, tmp_path)) == 3
        rows = list(csv.DictReader(open(tmp_path / "out" / "loss-range_results.csv")))
        assert [row["contained"] for row in rows] == ["0", "0"]
        assert capsys.readouterr().err == "loss-range: containment violated\n"


class TestStandardize:
    def test_flag_enables_feature_uncertain_runs(self, tmp_path):
        # Large-scale features need standardization to stay in the
        # no-splitting regime.
        rng = np.random.default_rng(5)
        n = 60
        big = rng.uniform(1000, 5000, size=n)
        small = rng.uniform(0, 3, size=n)
        y = 0.002 * big - 1.0 * small + rng.normal(0, 0.1, n)
        path = tmp_path / "scales.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("big,small,target\n")
            for i in range(n):
                fh.write(f"{float(big[i])!r},{float(small[i])!r},{float(y[i])!r}\n")
        rc = main([
            "certify", "--dataset", str(path), "--label", "target",
            "--target", "features", "--columns", "big", "--standardize",
            "--seeds", "1", "--percentage", "0.1", "--radius", "0.05",
            "--lambda", "0.02", "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 0
        rows = list(csv.DictReader(open(tmp_path / "out" / "certify_results.csv")))
        assert rows[0]["splits"] == "1"


class TestParams:
    def test_rows_per_coefficient(self, data_csv, tmp_path):
        cfg = base_config(data_csv, tmp_path / "out")
        report, _ = cmd_params(cfg)
        names = [r["coefficient"] for r in report.rows]
        assert names == ["bias", "f0", "f1"]
        for row in report.rows:
            assert row["lo"] <= row["hi"]


class TestConfigAndExitCodes:
    def test_config_file_roundtrip(self, data_csv, tmp_path):
        cfg_text = f"""
[data]
path = {data_csv}
label = target
split_ratio = 0.75
[uncertainty]
target = labels
percentage = 0.15
radius = 0.04
[ridge]
lambda = 0.03
[certify]
threshold = 0.06
[sweep]
radius_grid = 0.02, 0.04
[run]
seeds = 7, 8
format = json
out_dir = {tmp_path / "cfg_out"}
"""
        path = tmp_path / "exp.ini"
        path.write_text(cfg_text, encoding="utf-8")
        cfg = load_config(str(path))
        assert cfg.label_column == "target"
        assert cfg.split_ratio == 0.75
        assert cfg.radius_grid == [0.02, 0.04]
        assert cfg.seeds == [7, 8]
        assert cfg.fmt == "json"
        rc = main(["certify", "--config", str(path)])
        assert rc == 0
        report = json.loads((tmp_path / "cfg_out" / "certify_report.json").read_text())
        assert report["command"] == "certify"
        assert len(report["rows"]) == 4

    def test_usage_error(self):
        assert main(["certify", "--format", "xml"]) == 1

    def test_missing_dataset_is_data_error(self, tmp_path):
        rc = main([
            "certify", "--dataset", "/no/such/file.csv", "--label", "y",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 2

    def test_flag_overrides_config(self, data_csv, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            f"[data]\npath = {data_csv}\nlabel = target\n[run]\nseeds = 1\n",
            encoding="utf-8",
        )
        cfg = load_config(str(path))
        assert cfg.seeds == [1]
        rc = main([
            "params", "--config", str(path), "--seed", "9",
            "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 0
        rows = list(csv.DictReader(open(tmp_path / "o" / "params_results.csv")))
        assert rows[0]["seed"] == "9"


def sample_values(opt):
    """Two different ``(text, value)`` pairs for ``opt``; the first is not its default."""
    if opt.choices:
        return [(c, c) for c in (opt.choices[-1], opt.choices[0])]
    if opt.cast is bool:
        return [("on", True), ("off", False)]
    items = {str: ["alpha", "beta"], int: [7, 9], float: [0.375, 0.625]}[opt.cast]
    if opt.many:
        return [(", ".join(map(str, items)), items), (str(items[1]), items[1:])]
    return [(str(v), v) for v in items]


def write_ini(tmp_path, text):
    path = tmp_path / "exp.ini"
    path.write_text(text, encoding="utf-8")
    return str(path)


def types_of(value):
    return [type(v) for v in value] if isinstance(value, list) else type(value)


def option_id(opt):
    return f"{opt.section}.{opt.key}"


class TestOptions:
    @pytest.mark.parametrize("opt", OPTIONS, ids=option_id)
    def test_key_sets_only_its_field(self, opt, tmp_path):
        text, value = sample_values(opt)[0]
        cfg = load_config(write_ini(tmp_path, f"[{opt.section}]\n{opt.key} = {text}\n"))
        expected = ExperimentConfig()
        setattr(expected, opt.attr, value)
        assert cfg == expected
        assert types_of(getattr(cfg, opt.attr)) == types_of(value)

    @pytest.mark.parametrize("opt", [o for o in OPTIONS if o.flag], ids=option_id)
    def test_flag_overrides_key(self, opt, tmp_path):
        (text, value), (ini_text, ini_value) = sample_values(opt)
        parse = build_parser().parse_args
        path = write_ini(tmp_path, f"[{opt.section}]\n{opt.key} = {text}\n")
        assert apply_overrides(load_config(path), parse(["certify"])) == load_config(path)
        ini = f"[{opt.section}]\n{opt.key} = {ini_text}\n"
        if opt.grid:
            ini += f"[sweep]\n{opt.grid} = 0.1, 0.2\n"
        argv = ["certify", opt.flag] + ([] if opt.cast is bool else [text])
        cfg = apply_overrides(load_config(write_ini(tmp_path, ini)), parse(argv))
        assert getattr(cfg, opt.attr) == value != ini_value
        assert types_of(getattr(cfg, opt.attr)) == types_of(value)
        if opt.grid:
            assert getattr(cfg, opt.grid) == [value]

    def test_seeds_win_over_seed(self):
        parse = build_parser().parse_args
        assert apply_overrides(ExperimentConfig(), parse(["certify", "--seed", "9"])).seeds == [9]
        both = parse(["certify", "--seeds", "3,4", "--seed", "9"])
        assert apply_overrides(ExperimentConfig(), both).seeds == [3, 4]

    @pytest.mark.parametrize("opt", [o for o in OPTIONS if o.many], ids=option_id)
    def test_empty_list_keeps_default(self, opt, tmp_path):
        cfg = load_config(write_ini(tmp_path, f"[{opt.section}]\n{opt.key} =\n"))
        assert cfg == ExperimentConfig()

    @pytest.mark.parametrize("extra, named", [
        ("[ridge]\nlamda = 0.5\n", "[ridge] lamda"),
        ("standardize = maybe\n", "'maybe'"),
        ("[ridge]\ntransform = qr\n", "'qr'"),
    ])
    def test_unknown_key_or_bad_value_is_config_error(self, data_csv, tmp_path, capsys, extra, named):
        path = write_ini(tmp_path, f"[data]\npath = {data_csv}\nlabel = target\n{extra}")
        assert main(["certify", "--config", path, "--out-dir", str(tmp_path / "out")]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, ini", [
        (["--lambda", "-1"], ""),
        ([], "[ridge]\nlambda = -1\n"),
        ([], "[sweep]\nlambda_grid = 0.1, -0.5\n"),
        (["--lambda", "nan"], ""),
        (["--lambda", "inf"], ""),
        ([], "[ridge]\nlambda = nan\n"),
        ([], "[sweep]\nlambda_grid = 0.1, inf\n"),
    ], ids=["flag", "key", "grid", "flag-nan", "flag-inf", "key-nan", "grid-inf"])
    def test_negative_lambda_is_config_error(self, data_csv, tmp_path, capsys, flag, ini):
        path = write_ini(tmp_path, f"[data]\npath = {data_csv}\nlabel = target\n{ini}")
        argv = ["lambda-sweep", "--config", path, "--out-dir", str(tmp_path / "out"), *flag]
        assert main(argv) == 2
        assert "config error: lambda must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [
        "path = x\n",
        "[data]\npath = a\npath = b\n",
        "[data]\npath = a\n[data]\nlabel = b\n",
    ], ids=["no-section-header", "duplicate-key", "duplicate-section"])
    def test_unparsable_config_is_config_error(self, tmp_path, capsys, text):
        path = write_ini(tmp_path, text)
        assert main(["params", "--config", path, "--out-dir", str(tmp_path / "out")]) == 2
        assert f"config error: cannot parse config file {path}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_uncertain_column_is_data_error(self, data_csv, tmp_path, capsys):
        argv = ["params", "--dataset", data_csv, "--label", "target", "--target", "features",
                "--columns", "nosuch", "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "'nosuch'" in capsys.readouterr().err

    def test_readme_config_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
        cfg = load_config(write_ini(tmp_path, block))
        cfg.validate()
        assert cfg.label_column == "mpg" and cfg.standardize
