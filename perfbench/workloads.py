"""Seeded problem pools and the four steps every benchmark problem runs.

A workload is a fixed pool of problems generated from the workload seed.
Each problem runs, in order:

1. abstract -- ``inject_uncertainty`` or ``abstract_missing``;
2. fit      -- ``fixed_point`` with its defaults (``verify=True``);
3. query    -- ``certify_robustness``, ``loss_interval``,
               ``parameter_intervals`` and, on ``features``,
               ``predict_interval_uncertain`` for every test point;
4. check    -- brute-force oracle: sampled worlds, plus every corner when
               there are at most ``2**CORNER_SYMBOLS`` of them.

Every library call goes through an attribute of the ``zonoridge`` package
(``zr.fixed_point``, not a name bound at import time), so the tracer can
rebind it.  The library receives only generated arrays; the seed stays here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import zonoridge as zr

#: Corners are enumerated, in addition to the sampled worlds, up to this many symbols.
CORNER_SYMBOLS = 6
#: Worlds the oracle samples per problem.
WORLDS = 64
#: Share of training rows ``inject_uncertainty`` makes uncertain.
UNCERTAIN_SHARE = 0.1
#: Seed of the problem designs: features, true weights and uncertain cells.
DESIGN_SEED = 0
#: Relative slack of every containment check, as in ``contains_world_weights``.
REL_TOL = 1e-7


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    d: int  # columns including the bias
    n_rows: int  # rows before the 80/20 train/test split
    lam: float
    pool: int  # problems per pass
    threshold: float  # certification width, as a share of the training label range
    target: str = ""  # inject_uncertainty target; empty for missing values
    radius: float = 0.0
    missing_cells: tuple[int, ...] = ()  # cycled over the pool
    test_radius: float = 0.0  # feature uncertainty of each test point, if > 0
    query_repeats: int = 1  # the query step's latency is its mean over these repeats
    features: str = "normal"  # distribution of the non-bias features: normal | uniform

    @property
    def n_train(self) -> int:
        return int(0.8 * self.n_rows)


WORKLOADS = {
    w.name: w
    for w in (
        WorkloadSpec(
            name="labels",
            why=(
                "label-only uncertainty, the paper's headline certification case: "
                "k = 0, so no box solve and no splitting; form expansion over 500 "
                "rows and 50-symbol loss squares dominate"
            ),
            d=8, n_rows=625, lam=0.01, pool=12, threshold=0.0105,
            target="labels", radius=0.05,
        ),
        WorkloadSpec(
            name="features",
            why=(
                "feature and label cells: nonzero box diameters, degree-2 and -3 "
                "monomials in c' and h, a residual check through linearize and "
                "interval_hull, and uncertain test points"
            ),
            d=5, n_rows=125, lam=1.0, pool=12, threshold=0.0042,
            target="both", radius=0.02, test_radius=0.05,
        ),
        WorkloadSpec(
            name="split",
            why=(
                "missing cells with beta > lam on most problems: the only workload "
                "on the split, part-pool and box-join path; two of its 8-cell "
                "problems raise SplitBudgetError and count as failed"
            ),
            d=3, n_rows=50, lam=0.05, pool=12, threshold=0.36,
            missing_cells=(5, 6, 7, 8), features="uniform", query_repeats=32,
        ),
    )
}


@dataclass
class Problem:
    """One generated problem: concrete train/test data and what abstracts it."""

    pid: int
    train: zr.Dataset
    test_X: np.ndarray
    test_y: np.ndarray
    spec_seed: int = 0  # seed of inject_uncertainty's row choice
    ranges: dict = field(default_factory=dict)  # declared ranges for missing cells
    world_seed: int = 0
    threshold: float = 0.0  # absolute certification width


def make_pool(spec: WorkloadSpec, seed: int) -> list[Problem]:
    """The workload's problem pool; the same seed always gives the same pool.

    A problem's design -- its features, true weights and which cells are
    uncertain or missing -- is fixed by its place in the pool; the seed
    draws the label noise and the oracle's worlds.  The design sets the work
    a fit does (on ``split`` the number of parts ranges from 1 to 256 with
    it) and the widths the precision figures compare, so fixing it keeps
    runs with different seeds comparable.
    """
    pool = []
    for pid in range(spec.pool):
        rng = np.random.default_rng([seed, pid])
        design = np.random.default_rng([DESIGN_SEED, pid])
        n, d = spec.n_rows, spec.d
        if spec.features == "uniform":
            features = design.uniform(-1.0, 1.0, (n, d - 1))
        else:
            features = design.standard_normal((n, d - 1))
        X = np.column_stack([np.ones(n), features])
        if spec.missing_cells:
            count = spec.missing_cells[pid % len(spec.missing_cells)]
            cells = design.choice(spec.n_train * (d - 1), size=count, replace=False)
        y = X @ design.standard_normal(d) + 0.1 * rng.standard_normal(n)
        Xtr, ytr = X[: spec.n_train], y[: spec.n_train]
        columns = ["bias"] + [f"f{j}" for j in range(d - 1)]
        ranges = {}
        if spec.missing_cells:
            ranges = {
                name: (float(Xtr[:, j].min()), float(Xtr[:, j].max()))
                for j, name in enumerate(columns)
                if j > 0
            }
            Xtr = Xtr.copy()
            Xtr[cells // (d - 1), 1 + cells % (d - 1)] = np.nan
        pool.append(
            Problem(
                pid=pid,
                train=zr.Dataset(X=Xtr, y=ytr, columns=columns),
                test_X=X[spec.n_train :],
                test_y=y[spec.n_train :],
                spec_seed=int(design.integers(2**31)),
                ranges=ranges,
                world_seed=int(rng.integers(2**31)),
                threshold=spec.threshold * float(np.ptp(ytr)),
            )
        )
    return pool


class SoundnessError(AssertionError):
    """A concrete world escaped the abstract result."""


@dataclass
class Outcome:
    """What one problem produced; times are ``None`` for a refused problem."""

    fit_s: float | None = None
    query_s: float | None = None
    total_s: float = 0.0
    paces: tuple[float, ...] = ()  # reference runs around the steps (see run.pace)
    refusal: str = ""
    parts: int = 0
    worlds: int = 0
    certified: float = 0.0
    zono_width: float = 0.0  # summed over test points
    oracle_width: float = 0.0
    loss_width: float = 0.0
    oracle_loss_width: float = 0.0


def abstract(spec: WorkloadSpec, p: Problem):
    if spec.missing_cells:
        return zr.abstract_missing(p.train, p.ranges)
    return zr.inject_uncertainty(
        p.train, zr.UncertaintySpec(spec.target, UNCERTAIN_SHARE, spec.radius, seed=p.spec_seed)
    )


def uncertain_test_point(x: np.ndarray, radius: float, registry) -> "zr.ZVector":
    """Test point whose non-bias features each gain a fresh data symbol."""
    sids = registry.new_symbols(len(x) - 1, zr.SymbolKind.DATA)
    entries = [zr.PolyForm(registry, float(x[0]))]
    entries += [
        zr.PolyForm(registry, float(v), {(sid,): radius}) for v, sid in zip(x[1:], sids)
    ]
    return zr.ZVector(registry, entries)


def query(spec: WorkloadSpec, p: Problem, weights) -> dict:
    out = {
        "report": zr.certify_robustness(p.test_X, weights, p.threshold),
        "loss": zr.loss_interval(p.test_X, p.test_y, weights, spec.lam),
        "params": zr.parameter_intervals(weights),
    }
    if spec.test_radius > 0.0:
        out["uncertain"] = [
            zr.predict_interval_uncertain(
                uncertain_test_point(x, spec.test_radius, weights.registry), weights
            )
            for x in p.test_X
        ]
    return out


def _inside(value: float, lo: float, hi: float) -> bool:
    tol = REL_TOL * (1.0 + abs(value))
    return lo - tol <= value <= hi + tol


def check(spec: WorkloadSpec, p: Problem, ad, weights, q: dict, outcome: Outcome) -> None:
    """Oracle check of one fitted problem; raises SoundnessError on any escape.

    Also records the precision figures: zonotope widths against the widths
    the oracle's worlds span.
    """
    worlds = zr.sample_worlds(ad, WORLDS, p.world_seed)
    if len(ad.data_symbols()) <= CORNER_SYMBOLS:
        worlds = worlds + list(zr.enumerate_worlds(ad, "corner"))
    preds = [interval for interval, _ in q["report"].per_point]
    lo = np.array([i.lo for i in preds])
    hi = np.array([i.hi for i in preds])
    loss_iv = q["loss"]
    params = q["params"]
    pred_lo = np.full(len(preds), np.inf)
    pred_hi = np.full(len(preds), -np.inf)
    loss_lo, loss_hi = np.inf, -np.inf
    for wa, X, y in worlds:
        w_star = zr.ridge_concrete(X, y, spec.lam)
        if not zr.contains_world_weights(weights, wa.values, w_star):
            raise SoundnessError(f"problem {p.pid}: world weights escaped")
        if not all(_inside(w_star[j], params.lo[j], params.hi[j]) for j in range(len(w_star))):
            raise SoundnessError(f"problem {p.pid}: world weights escaped parameter intervals")
        pw = p.test_X @ w_star
        for i, v in enumerate(pw):
            if not _inside(float(v), lo[i], hi[i]):
                raise SoundnessError(f"problem {p.pid}: test prediction {i} escaped")
        pred_lo = np.minimum(pred_lo, pw)
        pred_hi = np.maximum(pred_hi, pw)
        loss = zr.concrete_loss(p.test_X, p.test_y, w_star, spec.lam)
        if not _inside(loss, loss_iv.lo, loss_iv.hi):
            raise SoundnessError(f"problem {p.pid}: loss escaped")
        loss_lo, loss_hi = min(loss_lo, loss), max(loss_hi, loss)
        if "uncertain" in q:
            # x'w is linear in the test point, so its extremes over the point's
            # box are these, for this world's weights.
            spread = spec.test_radius * float(np.abs(w_star[1:]).sum())
            for i, interval in enumerate(q["uncertain"]):
                if not (
                    _inside(float(pw[i]) - spread, interval.lo, interval.hi)
                    and _inside(float(pw[i]) + spread, interval.lo, interval.hi)
                ):
                    raise SoundnessError(f"problem {p.pid}: uncertain test point {i} escaped")
    if spec.target == "labels":
        baseline = zr.interval_ridge_labels(ad.X_R, label_intervals(ad), spec.lam)
        for i, x in enumerate(p.test_X):
            b_lo, b_hi = baseline.predict_interval(x)
            if hi[i] - lo[i] > (b_hi - b_lo) * (1.0 + 1e-9) + 1e-12:
                raise SoundnessError(f"problem {p.pid}: wider than the interval baseline at {i}")
    outcome.worlds = len(worlds)
    outcome.certified = q["report"].ratio
    outcome.zono_width = float((hi - lo).sum())
    outcome.oracle_width = float((pred_hi - pred_lo).sum())
    outcome.loss_width = loss_iv.hi - loss_iv.lo
    outcome.oracle_loss_width = loss_hi - loss_lo


def label_intervals(ad) -> np.ndarray:
    """Per-row label intervals of an abstract dataset, for the interval baseline."""
    intervals = np.column_stack([ad.y_R, ad.y_R])
    for sid in ad.label_symbols():
        r, _ = ad.provenance[sid]
        intervals[r] = ad.cell_interval(sid)
    return intervals
