"""Failure detection, query retry/failover and replica promotion.

Everything here goes beyond the paper (which defers node failure to
future work, section 6.3); see docs/resilience.md for the design and
its explicit deviations.  The subsystem is inert unless
``DataCyclotronConfig.resilience`` is set.
"""

from repro.resilience.admission import AdmissionValve
from repro.resilience.detector import ArrivalWindow, SuccessorMonitor
from repro.resilience.manager import ResilienceManager
from repro.resilience.overload import OverloadController, OverloadPolicy
from repro.resilience.retry import ATTEMPT_ID_BASE, QueryRetrier, RetryState

__all__ = [
    "AdmissionValve",
    "ArrivalWindow",
    "SuccessorMonitor",
    "OverloadController",
    "OverloadPolicy",
    "ResilienceManager",
    "QueryRetrier",
    "RetryState",
    "ATTEMPT_ID_BASE",
]
