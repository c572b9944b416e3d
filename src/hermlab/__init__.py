"""hermlab: a numerical laboratory for Hermite sheets, Wiener-Hermite
integrals, the Hermite-noise stochastic heat equation, and Hermite
Ornstein-Uhlenbeck processes, with quadrature oracles, Monte Carlo
statistics, and an exact power-counting integrability checker."""

__version__ = "0.1.0"

from .core import (
    DomainError,
    ExpWindow,
    GridSpec,
    HeatWindow,
    HermiteSpec,
    HurstMultiIndex,
    IndicatorBox,
    Integrand,
    LimitScenario,
    Marginal,
    RandomField,
    ResourceError,
    TruncationError,
    UnsupportedError,
    derive_stream,
)

__all__ = [
    "DomainError",
    "ExpWindow",
    "GridSpec",
    "HeatWindow",
    "HermiteSpec",
    "HurstMultiIndex",
    "IndicatorBox",
    "Integrand",
    "LimitScenario",
    "Marginal",
    "RandomField",
    "ResourceError",
    "TruncationError",
    "UnsupportedError",
    "derive_stream",
    "__version__",
]
