"""Discrete-event simulation substrate.

This package replaces the physical deployment of the original REBECA
middleware (TCP links between Java broker processes, wireless access links to
mobile devices) with a deterministic, laptop-scale simulation that preserves
the properties the paper's algorithms rely on: per-link FIFO delivery, known
latencies and explicit connection awareness.

Only the names the examples use are re-exported here; everything else is
imported from its defining module.
"""

from .simulator import PeriodicTask, Simulator

__all__ = ["PeriodicTask", "Simulator"]
