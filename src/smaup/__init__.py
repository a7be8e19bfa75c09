"""Toolkit for measuring the sensitivity of a spatially intensive variable to
the Modifiable Areal Unit Problem.

The library covers the full workflow: build contiguity weights, simulate SAR
random fields at chosen autocorrelation levels, aggregate areas into random
contiguous regions, evaluate the closed-form sensitivity statistic against
embedded critical values (or a simulated null distribution), and reproduce
the Monte Carlo experiments behind those critical values at configurable
scale.
"""

from ._version import __version__
from .core import (
    DEFAULT_PARAMS,
    SmaupResult,
    eta_of_theta,
    l_of_theta,
    m_statistic,
    min_safe_k,
    scan_k,
    smaup_test,
    tau_of_theta,
)
from .critical_values import (
    ALPHA_GRID,
    DEFAULT_TABLE,
    N_GRID,
    RHO_GRID,
    CriticalValueTable,
    critical_value,
    export_critical_values_csv,
)
from .errors import (
    AdjacencyParseError,
    ContiguityError,
    CorruptPartitionError,
    DegenerateInputError,
    DegenerateSampleError,
    ExperimentStallError,
    GeoJSONError,
    InsufficientDataError,
    InvalidAlphaError,
    InvalidDimensionError,
    InvalidKError,
    NumericalError,
    RepeatedValueError,
    RetryExhaustedError,
    ShapeMismatchError,
    SmaupError,
    UndefinedRatioError,
)
from .experiments import (
    EffectsConfig,
    EffectsSummary,
    NullDistribution,
    PowerSizeReport,
    effects_experiment,
    generate_null,
    lattice_for_area_count,
    power_experiment,
    size_experiment,
)
from .regionalize import (
    AggregatedVariable,
    Regionalization,
    aggregate_mean,
    random_regions,
)
from .sar import (
    AreaVariable,
    SarSpec,
    estimate_rho,
    generate_sar,
    generate_with_target_rho,
    rank_permute,
)
from .stats import (
    TestOutcome,
    levene_test,
    pseudo_p,
    rcm,
    rcv,
    welch_t_test,
)
from .weights import (
    SpatialWeights,
    build_lattice_rook,
    from_adjacency_text,
    from_geojson,
    is_connected,
    to_adjacency_text,
)

__all__ = [
    "__version__",
    # weights
    "SpatialWeights",
    "build_lattice_rook",
    "from_adjacency_text",
    "from_geojson",
    "is_connected",
    "to_adjacency_text",
    # sar
    "AreaVariable",
    "SarSpec",
    "generate_sar",
    "estimate_rho",
    "rank_permute",
    "generate_with_target_rho",
    # regionalize
    "Regionalization",
    "AggregatedVariable",
    "random_regions",
    "aggregate_mean",
    # stats
    "TestOutcome",
    "rcm",
    "rcv",
    "welch_t_test",
    "levene_test",
    "pseudo_p",
    # statistic + test
    "DEFAULT_PARAMS",
    "SmaupResult",
    "l_of_theta",
    "eta_of_theta",
    "tau_of_theta",
    "m_statistic",
    "smaup_test",
    "scan_k",
    "min_safe_k",
    # critical values
    "CriticalValueTable",
    "DEFAULT_TABLE",
    "RHO_GRID",
    "N_GRID",
    "ALPHA_GRID",
    "critical_value",
    "export_critical_values_csv",
    # experiments
    "NullDistribution",
    "EffectsConfig",
    "EffectsSummary",
    "PowerSizeReport",
    "effects_experiment",
    "generate_null",
    "power_experiment",
    "size_experiment",
    "lattice_for_area_count",
    # errors
    "SmaupError",
    "InvalidDimensionError",
    "AdjacencyParseError",
    "GeoJSONError",
    "ShapeMismatchError",
    "DegenerateInputError",
    "NumericalError",
    "RetryExhaustedError",
    "InvalidKError",
    "RepeatedValueError",
    "ContiguityError",
    "CorruptPartitionError",
    "InsufficientDataError",
    "UndefinedRatioError",
    "DegenerateSampleError",
    "InvalidAlphaError",
    "ExperimentStallError",
]
