"""How tight is the over-approximation?  Loss ranges vs. ground truth.

For a small instance we can literally enumerate every corner of the
uncertainty cube, train one model per world, and record the exact spread of
the test loss.  The abstract loss interval must contain that spread; this
script shows the containment and how the gap grows with the uncertainty
radius (linearization errors grow with the coefficients of the high-order
terms).
"""

import numpy as np

from zonoridge import (
    Dataset,
    RidgeConfig,
    UncertaintySpec,
    fixed_point,
    inject_uncertainty,
    loss_interval,
    oracle_ranges,
)


def make_instance(seed=3, n=16):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.uniform(-1, 2, size=(n, 2))])
    y = X @ np.array([1.0, -1.5, 0.8]) + 0.1 * rng.standard_normal(n)
    return Dataset(X=X, y=y, columns=["bias", "f0", "f1"])


def main():
    ds = make_instance()
    test_X, test_y = ds.X[:6], ds.y[:6]
    lam = 0.05
    print(f"{'radius':>8} {'GT range':>22} {'abstract range':>22} {'gap':>8}")
    for radius in (0.03, 0.06, 0.09, 0.12):
        spec = UncertaintySpec(
            target="both", percentage=0.2, radius=radius, seed=11, columns=("f0",)
        )
        ad = inject_uncertainty(ds, spec)
        weights, _ = fixed_point(ad, RidgeConfig(lam=lam))
        li = loss_interval(test_X, test_y, weights, lam)
        gt = oracle_ranges(ad, lam, test_X, test_y, strategy="corner")
        assert li.lo <= gt.loss_lo and gt.loss_hi <= li.hi, "containment violated"
        gap = (li.hi - li.lo) - (gt.loss_hi - gt.loss_lo)
        print(
            f"{radius:>8.2f} [{gt.loss_lo:>9.4f}, {gt.loss_hi:>9.4f}]"
            f" [{li.lo:>9.4f}, {li.hi:>9.4f}] {gap:>8.4f}"
        )
    print("\nEvery ground-truth range sits inside the abstract interval; the")
    print("over-approximation gap widens as the uncertainty radius grows.")


if __name__ == "__main__":
    main()
