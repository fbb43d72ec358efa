"""Self-tests of the benchmark: determinism, seeding, tracing and the gates.

Run from the root of the checkout with ``python3 -m pytest perfbench``.
They use cut-down pools, so they take well under a minute.
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans as S  # noqa: E402

zr = run.import_library()
import workloads as W  # noqa: E402

# Small pools that still reach every path: the split pool's four problems
# have 5, 6, 7 and 8 missing cells, so they cover the unsplit fit, the
# part pool (more than 8 parts) and a SplitBudgetError refusal.
SMALL = {"labels": 2, "features": 2, "split": 4}


def small(name: str) -> W.WorkloadSpec:
    return dataclasses.replace(W.WORKLOADS[name], pool=SMALL[name])


def precision(outcomes) -> list[tuple]:
    return [
        (o.refusal, o.parts, o.worlds, o.certified, o.zono_width, o.oracle_width,
         o.loss_width, o.oracle_loss_width)
        for o in outcomes
    ]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_same_results(name):
    spec = small(name)
    first = run.run_pass(zr, W, spec, W.make_pool(spec, 5))
    second = run.run_pass(zr, W, spec, W.make_pool(spec, 5))
    assert precision(first) == precision(second)


def test_same_seed_same_counts_on_split():
    spec = small("split")
    counts = []
    for _ in range(2):
        tracer = S.Tracer()
        run.run_traced_pass(zr, W, spec, W.make_pool(spec, 5), tracer)
        counts.append(dict(tracer.counts))
    assert counts[0] == counts[1]
    assert counts[0]["dataset.split.parts"] > 8
    assert counts[0]["oracles.worlds"] > 0


def test_split_pool_has_a_refusal():
    outcomes = run.run_pass(zr, W, small("split"), W.make_pool(small("split"), 5))
    assert [o.refusal for o in outcomes].count("SplitBudgetError") == 1


@pytest.mark.parametrize("name", sorted(SMALL))
def test_other_seed_other_pool(name):
    spec = small(name)
    a, b = W.make_pool(spec, 1), W.make_pool(spec, 2)
    assert all(not np.array_equal(p.train.y, q.train.y) for p, q in zip(a, b))
    again = W.make_pool(spec, 1)
    assert all(
        np.array_equal(p.train.X, q.train.X, equal_nan=True) and np.array_equal(p.train.y, q.train.y)
        for p, q in zip(a, again)
    )


def test_split_self_times_non_negative():
    spec = small("split")
    tracer = S.Tracer()
    run.run_traced_pass(zr, W, spec, W.make_pool(spec, 5), tracer)
    busy, wall = S.pool_overlap(tracer.spans, threading.get_ident())
    assert busy > 0.0 and wall > 0.0, "no part was solved on the pool"
    for name, (calls, self_s) in S.self_times(tracer.spans).items():
        assert calls > 0 and self_s >= -1e-9, name


@pytest.mark.parametrize("name", ["labels", "features"])
def test_self_times_sum_to_traced_wall(name):
    spec = small(name)
    pool = W.make_pool(spec, 5)
    untraced = sum(o.total_s for o in run.run_pass(zr, W, spec, pool))
    tracer = S.Tracer()
    outcomes, _ = run.run_traced_pass(zr, W, spec, pool, tracer)
    traced = sum(o.total_s for o in outcomes)
    total_self = sum(s for _, s in S.self_times(tracer.spans).values())
    assert 0.0 <= traced - total_self <= max(traced - untraced, 0.01 * traced)


def test_times_scale_by_the_paces_around_them():
    slow = W.Outcome(fit_s=0.2, query_s=0.1, total_s=0.5, paces=(2 * run.NOMINAL_PACE_S,) * 3)
    refused = W.Outcome(total_s=0.1, refusal="SplitBudgetError", paces=(run.NOMINAL_PACE_S,) * 2)
    passes = [[slow, refused]]
    assert run.per_problem(passes, "fit_s") == [pytest.approx(0.1), float("inf")]
    assert run.per_problem(passes, "fit_s", scaled=False) == [0.2, float("inf")]
    assert run.per_problem(passes, "total_s") == [pytest.approx(0.25), pytest.approx(0.1)]


def test_tracer_restores_and_tolerates_missing_targets(monkeypatch):
    originals = (zr.fixed_point, zr.learning.box_join, zr.inference.linearize,
                 zr.AbstractDataset.split)
    monkeypatch.setattr(S, "TARGETS", S.TARGETS + (("learning", "gone"), ("nomodule", "f")))
    tracer = S.Tracer()
    names = tracer.install()
    try:
        assert zr.learning.box_join is zr.zonotope.box_join is not originals[1]
        assert zr.inference.linearize is not originals[2]
        assert "learning.gone" not in names and "nomodule.f" not in names
    finally:
        tracer.uninstall()
    assert (zr.fixed_point, zr.learning.box_join, zr.inference.linearize,
            zr.AbstractDataset.split) == originals


def test_soundness_gate_catches_a_shrunken_box():
    spec = small("features")
    p = W.make_pool(spec, 5)[0]
    ad = W.abstract(spec, p)
    weights, _ = zr.fixed_point(ad, zr.RidgeConfig(lam=spec.lam))
    weights.k = np.zeros_like(weights.k)
    with pytest.raises(W.SoundnessError):
        W.check(spec, p, ad, weights, W.query(spec, p, weights), W.Outcome())


def test_command_without_sources_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "labels", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
