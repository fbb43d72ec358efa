"""Reproducible experiment driver.

Subcommands, listed once in ``COMMANDS``: ``certify``, ``loss-range``,
``lambda-sweep``, ``oracle-check``, ``params``.  Configuration comes from an
INI-style file of flat key/value sections and from command-line flags, which
win; ``OPTIONS`` declares every setting once, with its key and its flag.
Each subcommand runs tasks ``(seed, percentage, radius, lambda)`` over its
seeds and grids through one runner that splits, abstracts and fits the data
and appends the fit's diagnostics to the subcommand's rows.  Tasks run
independently, in parallel, and keep their order; reports are written as
plot-ready CSV or JSON.  Identical configurations produce byte-identical CSV
output.

Exit codes: 0 ok, 1 usage error, 2 data/config error, 3 soundness failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from itertools import chain, product
from pathlib import Path

import numpy as np

from .dataset import (
    Dataset,
    FeatureScaler,
    UncertaintySpec,
    domain_ranges,
    inject_uncertainty,
    load_csv,
    train_test_split,
)
from .errors import BudgetExceededError, DataError, ZonoError
from .inference import certify_robustness, loss_interval, parameter_intervals
from .learning import RidgeConfig, _inside, contains_world_weights, fixed_point
from .oracles import _train_worlds, concrete_loss, interval_ridge_labels, oracle_ranges

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SOUNDNESS = 3


class UsageError(Exception):
    pass


@dataclass
class ExperimentConfig:
    dataset_path: str = ""
    label_column: str = ""
    feature_columns: list[str] | None = None
    split_ratio: float = 0.8
    split_seed: int = 0
    standardize: bool = False

    target: str = "labels"
    uncertain_columns: list[str] | None = None
    percentage: float = 0.1
    radius: float = 0.05

    lam: float = 0.0
    transform: str = "svd"
    split_budget: int = 4096

    threshold: float = 0.05  # fraction of the label domain range

    radius_grid: list[float] = field(default_factory=list)
    percentage_grid: list[float] = field(default_factory=list)
    lambda_grid: list[float] = field(default_factory=list)

    seeds: list[int] = field(default_factory=lambda: [1, 2, 3, 4, 5])
    out_dir: str = "out"
    fmt: str = "csv"
    jobs: int = 4

    oracle_budget: int = 4096
    oracle_samples: int = 500

    def validate(self) -> None:
        if not self.dataset_path:
            raise DataError("dataset path is required (config [data] path or --dataset)")
        if not self.label_column:
            raise DataError("label column is required (config [data] label or --label)")
        if len(set(self.seeds)) != len(self.seeds):
            raise DataError("seeds must be distinct")
        if self.fmt not in ("csv", "json"):
            raise DataError(f"unknown format {self.fmt!r}")
        if not self.threshold > 0:  # NaN too
            raise DataError("threshold must be positive")
        if not 0 < self.split_ratio < 1:  # NaN too
            raise DataError("split ratio must be in (0, 1)")
        if self.oracle_samples < 1:
            raise DataError("oracle samples must be >= 1")
        if not all(math.isfinite(v) and v >= 0 for v in [self.lam, *self.lambda_grid]):
            raise DataError("lambda must be >= 0 and finite")
        self.ridge_config()
        for pct, rad in product([self.percentage, *self.percentage_grid],
                                [self.radius, *self.radius_grid]):
            UncertaintySpec(self.target, pct, rad, 0, self.columns())

    def columns(self) -> tuple[str, ...] | None:
        return tuple(self.uncertain_columns) if self.uncertain_columns else None

    def ridge_config(self, lam: float | None = None) -> RidgeConfig:
        return RidgeConfig(
            lam=self.lam if lam is None else lam,
            transform=self.transform,
            split_budget=self.split_budget,
        )

    def echo(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Option:
    """One setting: its ``ExperimentConfig`` attribute, INI ``[section] key`` and flag.

    ``cast`` reads the text, item by item when ``many`` (items are separated
    by commas or spaces).  A ``flag`` of ``None`` makes the setting INI-only,
    and ``grid`` names the sweep list that the flag also replaces.
    """

    attr: str
    section: str
    key: str
    cast: type = str
    flag: str | None = None
    many: bool = False
    grid: str | None = None
    choices: tuple[str, ...] | None = None
    help: str | None = None


OPTIONS = (
    Option("dataset_path", "data", "path", flag="--dataset"),
    Option("label_column", "data", "label", flag="--label"),
    Option("feature_columns", "data", "features", flag="--features", many=True,
           help="comma-separated feature columns"),
    Option("split_ratio", "data", "split_ratio", float, "--split-ratio"),
    Option("split_seed", "data", "split_seed", int),
    Option("standardize", "data", "standardize", bool, "--standardize",
           help="standardize non-bias features on the training split"),
    Option("target", "uncertainty", "target", flag="--target",
           choices=("labels", "features", "both")),
    Option("uncertain_columns", "uncertainty", "columns", flag="--columns", many=True,
           help="uncertain feature columns"),
    Option("percentage", "uncertainty", "percentage", float, "--percentage",
           grid="percentage_grid"),
    Option("radius", "uncertainty", "radius", float, "--radius", grid="radius_grid"),
    Option("lam", "ridge", "lambda", float, "--lambda", grid="lambda_grid"),
    Option("transform", "ridge", "transform", flag="--transform", choices=("svd", "identity")),
    Option("split_budget", "ridge", "split_budget", int, "--split-budget"),
    Option("threshold", "certify", "threshold", float, "--threshold",
           help="robustness threshold as a fraction of the label range"),
    Option("radius_grid", "sweep", "radius_grid", float, many=True),
    Option("percentage_grid", "sweep", "percentage_grid", float, many=True),
    Option("lambda_grid", "sweep", "lambda_grid", float, many=True),
    Option("seeds", "run", "seeds", int, "--seeds", many=True, help="comma-separated seed list"),
    Option("out_dir", "run", "out_dir", flag="--out-dir"),
    Option("fmt", "run", "format", flag="--format", choices=("csv", "json")),
    Option("jobs", "run", "jobs", int, "--jobs"),
    Option("oracle_budget", "oracle", "budget", int, "--oracle-budget"),
    Option("oracle_samples", "oracle", "samples", int, "--oracle-samples"),
)


def _parse(opt: Option, text: str):
    """The value ``text`` gives ``opt``; ``None`` (keep the default) for an empty list."""
    if opt.cast is bool:
        states = configparser.ConfigParser.BOOLEAN_STATES
        if text.lower() not in states:
            raise ValueError(f"not a boolean: {text!r}")
        return states[text.lower()]
    if opt.many:
        return [opt.cast(tok) for tok in text.replace(",", " ").split()] or None
    if opt.choices and text not in opt.choices:
        raise ValueError(f"{text!r} is not one of {', '.join(opt.choices)}")
    return opt.cast(text)


def load_config(path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise DataError(f"cannot read config file {path}")
    except configparser.Error as exc:
        raise DataError(f"cannot parse config file {path}: {exc}") from exc
    options = {(opt.section, opt.key): opt for opt in OPTIONS}
    cfg = ExperimentConfig()
    for section in parser.sections():
        for key, text in parser.items(section):
            opt = options.get((section, key))
            if opt is None:
                raise DataError(f"unknown config key [{section}] {key}")
            try:
                value = _parse(opt, text)
            except ValueError as exc:
                raise DataError(f"[{section}] {key}: {exc}") from exc
            if value is not None:
                setattr(cfg, opt.attr, value)
    return cfg


def apply_overrides(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    if args.seed is not None:
        cfg.seeds = [args.seed]  # --seeds, applied below, wins
    for opt in OPTIONS:
        value = getattr(args, opt.attr, None)
        if opt.many and value is not None:
            value = _parse(opt, value)
        if value is None:
            continue
        setattr(cfg, opt.attr, value)
        if opt.grid:
            setattr(cfg, opt.grid, [value])
    return cfg


@dataclass
class RunReport:
    command: str
    config: dict
    rows: list[dict]
    summary: list[dict]
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    def write(self, out_dir: str, fmt: str) -> list[Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        written = []
        if fmt == "json":
            p = out / f"{self.command}_report.json"
            p.write_text(self.to_json() + "\n", encoding="utf-8")
            written.append(p)
        else:
            for name, rows in (("results", self.rows), ("summary", self.summary)):
                p = out / f"{self.command}_{name}.csv"
                _write_csv(p, rows)
                written.append(p)
        return written


def _write_csv(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if not rows:
            fh.write("")
            return
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _stats(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, std


def _summarize(rows: list[dict], group_keys: list[str], value_keys: list[str]) -> list[dict]:
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault(tuple(row[k] for k in group_keys), []).append(row)
    out = []
    for key in sorted(groups):
        bucket = groups[key]
        entry = dict(zip(group_keys, key))
        entry["runs"] = len(bucket)
        for vk in value_keys:
            mean, std = _stats([r[vk] for r in bucket])
            entry[f"{vk}_mean"] = mean
            entry[f"{vk}_std"] = std
            entry[f"{vk}_3sigma"] = 3.0 * std
        out.append(entry)
    return out


def _prepare(cfg: ExperimentConfig) -> tuple[Dataset, float]:
    data = load_csv(cfg.dataset_path, cfg.label_column, cfg.feature_columns)
    if data.has_missing():  # in a test row too: tasks inject uncertainty into observed data
        raise DataError(f"{cfg.dataset_path} has missing cells, which no command accepts")
    threshold_abs = cfg.threshold * domain_ranges(data).label_width()
    if threshold_abs <= 0:
        raise DataError("label domain range is zero; cannot derive a robustness threshold")
    return data, threshold_abs


def _run(cfg: ExperimentConfig, data: Dataset, task_rows, *, seeds=None, percentages=None,
         radii=None, lambdas=None) -> list[dict]:
    """The rows of every task ``(seed, percentage, radius, lambda)``, in task order.

    The tasks are the product of the seeds and the grids (each defaults to
    its one configured value) and run on ``cfg.jobs`` threads.  A task
    splits ``data`` for its seed, abstracts the training part, fits it at
    its lambda and passes ``(task, train, test, ad, weights)`` to
    ``task_rows``; every row it returns gains the fit's diagnostics columns.
    """
    tasks = list(product(seeds or cfg.seeds, percentages or [cfg.percentage],
                         radii or [cfg.radius], lambdas or [cfg.lam]))
    columns = cfg.columns()

    def run(task):
        seed, pct, rad, lam = task
        train, test = train_test_split(data, cfg.split_ratio, cfg.split_seed + seed)
        if cfg.standardize:
            scaler = FeatureScaler.fit(train)
            train, test = scaler.transform(train), scaler.transform(test)
        ad = inject_uncertainty(train, UncertaintySpec(cfg.target, pct, rad, seed, columns))
        weights, diag = fixed_point(ad, cfg.ridge_config(lam))
        res = diag.residual
        diagnostics = {
            "beta": diag.beta,
            "splits": diag.splits_used,
            "m_matrix_margin": diag.m_matrix_margin,
            "residual_real": res.real_residual if res else math.nan,
            "residual_data": res.data_residual if res else math.nan,
            "residual_box": res.box_residual if res else math.nan,
        }
        return [{**row, **diagnostics} for row in task_rows(task, train, test, ad, weights)]

    if cfg.jobs <= 1 or len(tasks) <= 1:
        results = [run(t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(run, tasks))
    return list(chain.from_iterable(results))


def cmd_certify(cfg: ExperimentConfig) -> tuple[RunReport, bool]:
    """Robustness ratios per seed and grid point, with the label-interval
    baseline alongside whenever uncertainty is label-only."""
    data, threshold_abs = _prepare(cfg)

    def task_rows(task, train, test, ad, weights):
        seed, pct, rad, lam = task
        row = {
            "seed": seed,
            "percentage": pct,
            "radius": rad,
            "lambda": lam,
            "threshold_abs": threshold_abs,
            "n_train": train.n,
            "n_test": test.n,
            "ratio": certify_robustness(test.X, weights, threshold_abs).ratio,
            "baseline_ratio": math.nan,
        }
        if cfg.target == "labels":
            baseline = interval_ridge_labels(train.X, ad.label_intervals(), lam)
            lo, hi = baseline.predict_interval(test.X)
            row["baseline_ratio"] = np.count_nonzero(hi - lo < threshold_abs) / test.n
        return [row]

    rows = _run(cfg, data, task_rows, percentages=cfg.percentage_grid, radii=cfg.radius_grid)
    value_keys = ["ratio"] + (["baseline_ratio"] if cfg.target == "labels" else [])
    summary = _summarize(rows, ["percentage", "radius"], value_keys)
    return RunReport("certify", cfg.echo(), rows, summary), True


def cmd_loss_range(cfg: ExperimentConfig) -> tuple[RunReport, bool]:
    """Zonotope loss interval vs enumerated ground truth (sampling fallback
    when enumeration exceeds the budget) across the radius grid; ok when
    every interval contains its ground truth."""
    data, _ = _prepare(cfg)

    def task_rows(task, train, test, ad, weights):
        seed, pct, rad, lam = task
        li = loss_interval(test.X, test.y, weights, lam)
        gt_mode = "corner"
        try:
            gt = oracle_ranges(ad, lam, test.X, test.y, strategy="corner",
                               budget=cfg.oracle_budget)
        except BudgetExceededError:
            gt_mode = "sampling_fallback"
            gt = oracle_ranges(ad, lam, test.X, test.y, strategy="uniform",
                               samples=cfg.oracle_samples, seed=seed)
        sampled = oracle_ranges(ad, lam, test.X, test.y, strategy="uniform",
                                samples=cfg.oracle_samples, seed=seed + 1)
        return [{
            "seed": seed,
            "radius": rad,
            "percentage": pct,
            "lambda": lam,
            "n_symbols": len(ad.split_symbols()),
            "zono_lo": li.lo,
            "zono_hi": li.hi,
            "gt_mode": gt_mode,
            "gt_lo": gt.loss_lo,
            "gt_hi": gt.loss_hi,
            "sample_lo": sampled.loss_lo,
            "sample_hi": sampled.loss_hi,
            "contained": int(_inside(np.array([gt.loss_lo, gt.loss_hi]), li.lo, li.hi).all()),
            "gap": (li.hi - li.lo) - (gt.loss_hi - gt.loss_lo),
        }]

    rows = _run(cfg, data, task_rows, radii=cfg.radius_grid)
    summary = _summarize(rows, ["radius"], ["zono_lo", "zono_hi", "gt_lo", "gt_hi", "gap"])
    notes = sorted({
        f"seed={r['seed']} radius={r['radius']}: enumeration over budget, sampled instead"
        for r in rows if r["gt_mode"] != "corner"
    })
    ok = all(r["contained"] for r in rows)
    return RunReport("loss-range", cfg.echo(), rows, summary, notes=notes), ok


def cmd_lambda_sweep(cfg: ExperimentConfig) -> tuple[RunReport, bool]:
    """Robustness ratio and worst-case test loss across the lambda grid."""
    data, threshold_abs = _prepare(cfg)

    def task_rows(task, train, test, ad, weights):
        seed, pct, rad, lam = task
        li = loss_interval(test.X, test.y, weights, lam)
        return [{
            "seed": seed,
            "lambda": lam,
            "percentage": pct,
            "radius": rad,
            "threshold_abs": threshold_abs,
            "ratio": certify_robustness(test.X, weights, threshold_abs).ratio,
            "loss_lo": li.lo,
            "loss_hi": li.hi,
        }]

    rows = _run(cfg, data, task_rows, lambdas=cfg.lambda_grid)
    summary = _summarize(rows, ["lambda"], ["ratio", "loss_hi"])
    if summary:
        best = min(summary, key=lambda s: s["loss_hi_mean"])
        for entry in summary:
            entry["best_worst_case_loss"] = int(entry is best)
    return RunReport("lambda-sweep", cfg.echo(), rows, summary), True


def cmd_oracle_check(cfg: ExperimentConfig) -> tuple[RunReport, bool]:
    """End-to-end soundness sweep: every sampled/enumerated world's trained
    weights, predictions and loss must fall inside the abstract results."""
    data, threshold_abs = _prepare(cfg)

    def task_rows(task, train, test, ad, weights):
        seed, pct, rad, lam = task
        li = loss_interval(test.X, test.y, weights, lam)
        report = certify_robustness(test.X, weights, threshold_abs)
        pred_lo, pred_hi = np.array([interval for interval, _ in report.per_point]).T
        worlds = [_train_worlds(ad, lam, "uniform", samples=cfg.oracle_samples, seed=seed)]
        try:
            worlds.append(_train_worlds(ad, lam, "corner", budget=cfg.oracle_budget))
        except BudgetExceededError:
            pass  # more corners than the budget: the sampled worlds alone
        count = weight_fail = pred_fail = loss_fail = 0
        for values, w_stars in chain(*worlds):
            count += len(w_stars)
            for e, w_star in zip(values, w_stars):
                weight_fail += not contains_world_weights(weights, e, w_star)
            preds = (test.X @ w_stars[..., None])[..., 0]
            pred_fail += int(np.sum(~_inside(preds, pred_lo, pred_hi).all(axis=1)))
            loss = concrete_loss(test.X, test.y, w_stars, lam)
            loss_fail += int(np.sum(~_inside(loss, li.lo, li.hi)))
        return [{
            "seed": seed,
            "percentage": pct,
            "radius": rad,
            "lambda": lam,
            "worlds": count,
            "weight_failures": weight_fail,
            "prediction_failures": pred_fail,
            "loss_failures": loss_fail,
        }]

    rows = _run(cfg, data, task_rows)
    failures = ("weight_failures", "prediction_failures", "loss_failures")
    summary = {"worlds_total": sum(r["worlds"] for r in rows)}
    summary.update({key: sum(r[key] for r in rows) for key in failures})
    ok = not any(summary[key] for key in failures)
    summary["passed"] = int(ok)
    return RunReport("oracle-check", cfg.echo(), rows, [summary]), ok


def cmd_params(cfg: ExperimentConfig) -> tuple[RunReport, bool]:
    """Per-coefficient intervals with direction-conclusiveness flags."""
    data, _ = _prepare(cfg)

    def task_rows(task, train, test, ad, weights):
        pi = parameter_intervals(weights, names=list(train.columns))
        return [{**rec, "seed": task[0]} for rec in pi.to_csv_rows()]

    rows = _run(cfg, data, task_rows, seeds=[cfg.seeds[0]])
    return RunReport("params", cfg.echo(), rows, rows), True


#: Each subcommand's function: it returns the report and whether every containment held.
COMMANDS = {
    "certify": cmd_certify,
    "loss-range": cmd_loss_range,
    "lambda-sweep": cmd_lambda_sweep,
    "oracle-check": cmd_oracle_check,
    "params": cmd_params,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="zonoridge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config")
        p.add_argument("--seed", type=int)
        for opt in (opt for opt in OPTIONS if opt.flag):
            if opt.cast is bool:  # default None: without the flag the INI value stands
                kind = {"action": "store_true", "default": None}
            else:  # apply_overrides parses lists: a bad item is a config error
                kind = {"type": str if opt.many else opt.cast, "choices": opt.choices}
            p.add_argument(opt.flag, dest=opt.attr, help=opt.help, **kind)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        cfg = apply_overrides(cfg, args)
        cfg.validate()
    except (DataError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_DATA

    try:
        report, ok = COMMANDS[args.command](cfg)
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ZonoError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA

    written = report.write(cfg.out_dir, cfg.fmt)
    for path in written:
        print(f"wrote {path}")
    for note in report.notes:
        print(f"note: {note}")
    if args.command == "oracle-check":
        print(f"oracle-check: {'PASS' if ok else 'FAIL'} ({report.summary[0]['worlds_total']} worlds)")
    elif not ok:
        print(f"{args.command}: containment violated", file=sys.stderr)
    return EXIT_OK if ok else EXIT_SOUNDNESS


if __name__ == "__main__":
    sys.exit(main())
