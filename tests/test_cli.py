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
from zonoridge.dataset import UncertaintySpec, inject_uncertainty, load_csv, train_test_split
from zonoridge.inference import LossInterval
from zonoridge.learning import fixed_point


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

    def test_residual_columns_are_the_verifier_of_each_fit(self, data_csv, tmp_path):
        """Unsplit rows carry the residual of the task's fit, split rows NaN."""
        args = ["certify", "--dataset", data_csv, "--label", "target", "--target", "features",
                "--percentage", "0.1", "--radius", "0.5", "--lambda", "0.2",
                "--seeds", "1,2", "--out-dir", str(tmp_path / "out")]
        assert main(args) == 0
        rows = list(csv.DictReader(open(tmp_path / "out" / "certify_results.csv")))
        cfg = ExperimentConfig(target="features", percentage=0.1, radius=0.5, lam=0.2)
        data = load_csv(data_csv, "target")
        for row in rows:
            seed = int(row["seed"])
            train, _ = train_test_split(data, cfg.split_ratio, cfg.split_seed + seed)
            ad = inject_uncertainty(train, UncertaintySpec("features", 0.1, 0.5, seed))
            _, diag = fixed_point(ad, cfg.ridge_config())
            assert row["splits"] == str(diag.splits_used)
            got = [float(row[f"residual_{part}"]) for part in ("real", "data", "box")]
            if diag.splits_used > 1:
                assert all(np.isnan(got))
                continue
            rep = diag.residual
            assert got == [rep.real_residual, rep.data_residual, rep.box_residual]
        assert [row["splits"] for row in rows] == ["256", "1"]


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
        monkeypatch.setattr(cli, "loss_interval", lambda *args: LossInterval(0.0, 0.0))
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

    def test_singular_fit_is_data_error(self, tmp_path, capsys):
        """Equal feature columns at lambda = 0 make the centers rank-deficient."""
        rng = np.random.default_rng(0)
        x = rng.uniform(-1.0, 2.0, 40)
        path = tmp_path / "dup.csv"
        rows = [f"{a!r},{a!r},{b!r}" for a, b in zip(x.tolist(), (1.0 + 2.0 * x).tolist())]
        path.write_text("\n".join(["a,b,y", *rows]) + "\n", encoding="utf-8")
        argv = ["certify", "--dataset", str(path), "--label", "y", "--lambda", "0",
                "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "error: centers are rank-deficient" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("command, flag, ini", [
        ("oracle-check", ["--oracle-samples", "0"], ""),
        ("oracle-check", ["--oracle-samples", "-3"], ""),
        ("loss-range", [], "[oracle]\nsamples = 0\n"),
    ], ids=["oracle-check-0", "oracle-check-negative", "loss-range-key-0"])
    def test_no_oracle_samples_is_config_error(self, tmp_path, capsys, command, flag, ini):
        # An oracle of no worlds checks nothing; refused before the dataset (here missing) is read.
        path = write_ini(tmp_path, f"[data]\npath = {tmp_path / 'missing.csv'}\nlabel = target\n{ini}")
        argv = [command, "--config", path, "--oracle-budget", "1", "--out-dir", str(tmp_path / "out"), *flag]
        assert main(argv) == 2
        assert "config error: oracle samples must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, ini", [
        (["--threshold", "nan"], ""),
        ([], "[certify]\nthreshold = nan\n"),
    ], ids=["flag", "key"])
    def test_nan_threshold_is_config_error(self, data_csv, tmp_path, capsys, flag, ini):
        path = write_ini(tmp_path, f"[data]\npath = {data_csv}\nlabel = target\n{ini}")
        argv = ["certify", "--config", path, "--out-dir", str(tmp_path / "out"), *flag]
        assert main(argv) == 2
        assert "config error: threshold must be positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, message", [
        (["--radius", "nan"], "radius must be >= 0 and finite"),
        (["--radius", "inf"], "radius must be >= 0 and finite"),
        (["--percentage", "2"], "percentage must be in [0, 1]"),
        (["--target", "features", "--columns", "f0,f0"],
         "uncertain columns ['f0', 'f0'] repeat a name"),
    ], ids=["nan", "inf", "percentage-2", "repeated-columns"])
    def test_non_finite_radius_is_data_error(self, tmp_path, capsys, flag, message):
        # Checked with the config, before the dataset (here missing) is read.
        path = write_ini(tmp_path, f"[data]\npath = {tmp_path / 'missing.csv'}\nlabel = target\n")
        argv = ["certify", "--config", path, "--out-dir", str(tmp_path / "out"), *flag]
        assert main(argv) == 2
        assert f"config error: {message}" in capsys.readouterr().err
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

    @pytest.mark.parametrize("features, named", [
        ("f0,target", "include the label"),
        ("f0,f0", "repeat a name"),
    ], ids=["label", "repeated"])
    def test_label_or_repeated_feature_is_data_error(self, data_csv, tmp_path, capsys, features, named):
        argv = ["params", "--dataset", data_csv, "--label", "target", "--features", features,
                "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert named in capsys.readouterr().err
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


def write_csv_missing_in_test_rows(tmp_path, seed=1):
    """The regression CSV with two blank cells, both in test rows of ``seed``'s split."""
    path = write_regression_csv(tmp_path / "holes.csv")
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    test_rows = np.random.default_rng(ExperimentConfig().split_seed + seed).permutation(40)[32:]
    for row, col in zip(test_rows[:2].tolist(), (0, 2)):
        cells = lines[1 + row].split(",")
        cells[col] = ""
        lines[1 + row] = ",".join(cells)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestInputRefusals:
    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_missing_cell_in_a_test_row_is_data_error(self, tmp_path, capsys, command):
        path = write_csv_missing_in_test_rows(tmp_path)
        argv = [command, "--dataset", path, "--label", "target", "--seeds", "1", "--lambda", "0.1",
                "--oracle-samples", "20", "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"data error: {path} has missing cells, which no command accepts\n"
        assert not (tmp_path / "out").exists()

    def test_infinite_cell_is_data_error(self, data_csv, tmp_path, capsys):
        text = Path(data_csv).read_text(encoding="utf-8").splitlines()
        text[5] = "inf," + text[5].split(",", 1)[1]
        Path(data_csv).write_text("\n".join(text) + "\n", encoding="utf-8")
        argv = ["certify", "--dataset", data_csv, "--label", "target", "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "data error: X and y must be finite; NaN marks a missing cell\n"

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_split_budget_below_one_is_config_error(self, tmp_path, capsys, budget):
        # Checked with the config, before the dataset (here missing) is read.
        argv = ["certify", "--dataset", str(tmp_path / "missing.csv"), "--label", "target",
                "--split-budget", budget, "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "config error: split budget must be >= 1\n"

    @pytest.mark.parametrize("ratio", ["0", "1.5", "nan"])
    def test_split_ratio_outside_the_unit_interval_is_config_error(self, tmp_path, capsys, ratio):
        # Checked with the config, before the dataset (here missing) is read.
        argv = ["certify", "--dataset", str(tmp_path / "missing.csv"), "--label", "target",
                "--split-ratio", ratio, "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "config error: split ratio must be in (0, 1)\n"

    @pytest.mark.parametrize("changes, message", [
        ({"dataset_path": ""}, "dataset path is required (config [data] path or --dataset)"),
        ({"label_column": ""}, "label column is required (config [data] label or --label)"),
        ({"seeds": [1, 2, 1]}, "seeds must be distinct"),
        ({"fmt": "xml"}, "unknown format 'xml'"),
    ], ids=["no-dataset", "no-label", "repeated-seeds", "format"])
    def test_validate_refusals(self, changes, message):
        cfg = ExperimentConfig(**{"dataset_path": "data.csv", "label_column": "target", **changes})
        with pytest.raises(cli.DataError) as exc:
            cfg.validate()
        assert type(exc.value) is cli.DataError and str(exc.value) == message

    def test_unreadable_config_is_data_error(self, tmp_path):
        path = str(tmp_path / "absent.ini")
        with pytest.raises(cli.DataError) as exc:
            load_config(path)
        assert str(exc.value) == f"cannot read config file {path}"

    def test_constant_label_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("x,target\n" + "".join(f"{i},2.5\n" for i in range(10)), encoding="utf-8")
        argv = ["certify", "--dataset", str(path), "--label", "target", "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "data error: label domain range is zero; cannot derive a robustness threshold\n"
        )
