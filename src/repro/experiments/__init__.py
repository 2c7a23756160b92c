"""Experiment harness and the E1..E13 experiment definitions.

Each experiment module exposes a ``run(...)`` function returning a
:class:`~repro.experiments.harness.Table`; the benchmark suite under
``benchmarks/`` wraps those functions with ``pytest-benchmark`` and asserts
the qualitative result shapes documented in EXPERIMENTS.md.  Run everything
and print the tables with::

    python -m repro.experiments
"""

from . import (
    e01_routing,
    e02_physical,
    e03_logical,
    e04_replicator,
    e05_handover,
    e06_nlb_sweep,
    e07_buffering,
    e08_shared_buffer,
    e09_exception,
    e10_scalability,
    e11_context,
    e12_routing_ablation,
    e13_replicator_ablation,
)
from .harness import Table

#: Registry of all experiments: id -> (title, run callable).
EXPERIMENTS = {
    "E1": ("Routing: flooding vs simple", e01_routing.run),
    "E2": ("Physical mobility support levels", e02_physical.run),
    "E3": ("Logical mobility precision", e03_logical.run),
    "E4": ("Extended logical mobility (pre-subscriptions)", e04_replicator.run),
    "E5": ("Handover overhead vs movement-graph degree", e05_handover.run),
    "E6": ("nlb coverage/cost sweep", e06_nlb_sweep.run),
    "E7": ("Buffering policies", e07_buffering.run),
    "E8": ("Shared digest buffer", e08_shared_buffer.run),
    "E9": ("Exception mode after power-off", e09_exception.run),
    "E10": ("Scalability sweep", e10_scalability.run),
    "E11": ("Context-dependent subscriptions", e11_context.run),
    "E12": ("Routing-strategy ablation", e12_routing_ablation.run),
    "E13": ("Replicator design-choice ablation", e13_replicator_ablation.run),
}

__all__ = [
    "EXPERIMENTS",
    "Table",
    "e01_routing",
    "e02_physical",
    "e03_logical",
    "e04_replicator",
    "e05_handover",
    "e06_nlb_sweep",
    "e07_buffering",
    "e08_shared_buffer",
    "e09_exception",
    "e10_scalability",
    "e11_context",
    "e12_routing_ablation",
    "e13_replicator_ablation",
]
