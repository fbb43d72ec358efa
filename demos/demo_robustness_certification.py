"""Robustness certification under uncertain training labels.

Trains on a car-like synthetic dataset where a fraction of the labels is
only known up to an interval, then certifies which test predictions stay
within 5% of the label range across *every* dataset the uncertainty allows.
The zonotope result is compared against naive interval arithmetic, which
loses the correlation between weight dimensions and gives up far earlier.
"""

import numpy as np

from zonoridge import (
    Dataset,
    RidgeConfig,
    UncertaintySpec,
    certify_robustness,
    domain_ranges,
    fixed_point,
    inject_uncertainty,
    interval_ridge_labels,
    train_test_split,
)


def car_dataset(seed=0, n=392):
    rng = np.random.default_rng(seed)
    cyl = rng.choice([4.0, 6.0, 8.0], size=n, p=[0.5, 0.2, 0.3])
    hp = 40 + 20 * cyl + rng.normal(0, 15, n)
    weight = 600 + 400 * cyl + rng.normal(0, 250, n)
    mpg = 45 - 2.2 * cyl - 0.04 * hp - 0.004 * weight + rng.normal(0, 2.0, n)
    X = np.column_stack([np.ones(n), cyl, hp, weight])
    return Dataset(X=X, y=mpg, columns=["bias", "cylinders", "horsepower", "weight"])


def main():
    ds = car_dataset()
    threshold = 0.05 * domain_ranges(ds).label_width()
    lam = 0.01
    print(f"{ds.n} rows, robustness threshold = 5% of label range = {threshold:.3f}")
    print(f"{'radius':>8} {'zonotope':>10} {'interval':>10}")
    for radius in (0.02, 0.05, 0.10, 0.15, 0.20):
        ratios, base_ratios = [], []
        for seed in (1, 2, 3):
            train, test = train_test_split(ds, 0.8, seed)
            ad = inject_uncertainty(
                train, UncertaintySpec("labels", percentage=0.1, radius=radius, seed=seed)
            )
            weights, _ = fixed_point(ad, RidgeConfig(lam=lam))
            ratios.append(certify_robustness(test.X, weights, threshold).ratio)

            intervals = np.column_stack([ad.y_R, ad.y_R])
            for sid in ad.label_symbols():
                r, _ = ad.provenance[sid]
                intervals[r] = ad.cell_interval(sid)
            baseline = interval_ridge_labels(train.X, intervals, lam)
            hits = sum(
                1 for x in test.X
                if (lambda lh: lh[1] - lh[0] < threshold)(baseline.predict_interval(x))
            )
            base_ratios.append(hits / test.n)
        print(f"{radius:>8.2f} {np.mean(ratios):>10.3f} {np.mean(base_ratios):>10.3f}")
    print("\nBoth methods are sound (they never overstate robustness); the")
    print("zonotope keeps certifying long after interval arithmetic collapses.")


if __name__ == "__main__":
    main()
