"""Replica-batched ensemble execution (R seeds as one wide state).

The ensemble engine steps R statistically independent replicas of a
scenario as one replica-blocked population, amortizing every NumPy
kernel dispatch over an R-times-wider array while keeping each replica
bitwise identical to a solo (R = 1) engine run keyed for the same
replica id.  See ``docs/algorithm.md`` ("Ensemble mode") for the layout
choice and the determinism contract.
"""

from repro.core.sampling import EnsembleStatistic, ensemble_statistic
from repro.ensemble.engine import (
    EnsembleEngine,
    replica_state,
    verify_replica_equality,
)

__all__ = [
    "EnsembleEngine",
    "EnsembleStatistic",
    "ensemble_statistic",
    "replica_state",
    "verify_replica_equality",
]
