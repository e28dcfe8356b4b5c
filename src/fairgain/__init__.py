"""Group-fair prediction as cooperative bargaining over relative risk improvements."""

from fairgain.core import (
    BargainingFrame,
    ConvergenceError,
    DegenerateBargainError,
    DegenerateFrameError,
    ImprovementProfile,
    RiskProfile,
    SolverReport,
    UnsupportedDimensionError,
)

__all__ = [
    "BargainingFrame",
    "ConvergenceError",
    "DegenerateBargainError",
    "DegenerateFrameError",
    "ImprovementProfile",
    "RiskProfile",
    "SolverReport",
    "UnsupportedDimensionError",
]

__version__ = "0.1.0"
