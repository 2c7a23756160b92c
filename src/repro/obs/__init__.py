"""Live observability layer: counters, histograms, per-broker registries.

The names live in :mod:`repro.obs.metrics`; nothing is re-exported here.
"""

__all__ = []
