"""Sound over-approximation of ridge regression trained on uncertain data.

The package abstracts an uncertain training set as a zonotope over error
symbols, computes a fixed point of abstract gradient descent in closed form,
and turns the resulting weight zonotope into prediction ranges, robustness
certificates, loss intervals and parameter bounds, together with
ground-truth oracles for validating soundness.
"""

from .dataset import (
    AbstractDataset,
    Cells,
    Dataset,
    DomainRange,
    FeatureScaler,
    UncertaintySpec,
    abstract_missing,
    domain_ranges,
    inject_uncertainty,
    load_csv,
    train_test_split,
)
from .errors import (
    BudgetExceededError,
    DataError,
    DegreeError,
    EmptyDataError,
    IllConditionedError,
    LambdaTooSmall,
    RegistryMismatchError,
    ShapeMismatchError,
    SplitBudgetError,
    ZonoError,
)
from .forms import COEF_EPS, PolyForm, ZVector
from .inference import (
    LossInterval,
    ParameterIntervals,
    PredictionInterval,
    RobustnessReport,
    certify_robustness,
    loss_interval,
    parameter_intervals,
    predict_interval,
    predict_interval_uncertain,
)
from .learning import (
    AbstractWeights,
    FixedPointDiagnostics,
    ResidualReport,
    RidgeConfig,
    contains_world_weights,
    fixed_point,
)
from .oracles import (
    IntervalRidgeResult,
    WorldAssignment,
    WorldOracleResult,
    concrete_loss,
    enumerate_worlds,
    interval_ridge_labels,
    oracle_ranges,
    ridge_concrete,
    sample_worlds,
)
from .symbols import SymbolKind, SymbolRegistry

__all__ = [
    "AbstractDataset",
    "AbstractWeights",
    "BudgetExceededError",
    "COEF_EPS",
    "Cells",
    "DataError",
    "Dataset",
    "DegreeError",
    "DomainRange",
    "EmptyDataError",
    "FeatureScaler",
    "FixedPointDiagnostics",
    "IllConditionedError",
    "IntervalRidgeResult",
    "LambdaTooSmall",
    "LossInterval",
    "ParameterIntervals",
    "PolyForm",
    "PredictionInterval",
    "RegistryMismatchError",
    "ResidualReport",
    "RidgeConfig",
    "RobustnessReport",
    "ShapeMismatchError",
    "SplitBudgetError",
    "SymbolKind",
    "SymbolRegistry",
    "UncertaintySpec",
    "WorldAssignment",
    "WorldOracleResult",
    "ZVector",
    "ZonoError",
    "abstract_missing",
    "certify_robustness",
    "concrete_loss",
    "contains_world_weights",
    "domain_ranges",
    "enumerate_worlds",
    "fixed_point",
    "inject_uncertainty",
    "interval_ridge_labels",
    "load_csv",
    "loss_interval",
    "oracle_ranges",
    "parameter_intervals",
    "predict_interval",
    "predict_interval_uncertain",
    "ridge_concrete",
    "sample_worlds",
    "train_test_split",
]
