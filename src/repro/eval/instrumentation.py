"""The evaluation engine's telemetry handle.

:class:`Metrics` lives in :mod:`repro.obs.metrics`, below every layer
that reports through it; it is re-exported here for the evaluation
engine's callers.
"""

from repro.obs.metrics import STAGES, Metrics

__all__ = ["Metrics", "STAGES"]
