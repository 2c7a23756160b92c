"""Mobility models, workloads and scenario composition.

This package provides the evaluation substrate: how clients move (models),
what gets published where (workloads), and ready-made scenario builders
matching the paper's motivating examples (office floor, car route, cellular
grid).

Only the names the examples use are re-exported here; everything else is
imported from its defining module.
"""

from .models import RoutePathMobility
from .scenario import build_office_scenario, build_route_scenario
from .workload import restaurant_workload, stock_workload

__all__ = [
    "RoutePathMobility",
    "build_office_scenario",
    "build_route_scenario",
    "restaurant_workload",
    "stock_workload",
]
