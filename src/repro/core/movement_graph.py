"""Movement graphs and the ``nlb`` ("next local broker") function.

"We have to assume that the mobile client obeys some movement restriction.
We formalize this restriction as a movement graph with brokers as vertices.
In this graph, an edge exists between broker b1 and b2 if and only if the
client may connect to b2 after disconnecting from b1. ...  Within the
algorithm, the movement graph is formalized as a function nlb : B -> 2^B."
(Sect. 3.2)

The movement graph is the paper's formalisation of *uncertainty in client
movement*: the wider the neighbourhoods, the more places the client might pop
up, and the more shadow virtual clients the replicator has to maintain.  The
builders below construct movement graphs from the structures the paper
mentions (broker-network adjacency, GSM cell neighbourhoods, office floors),
and :meth:`MovementGraph.average_degree` measures how wide the
neighbourhoods are.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..pubsub.broker_network import BrokerNetwork
from .location import LocationSpace


class MovementGraph:
    """An undirected graph over border brokers restricting client movement.

    The central operation is :meth:`nlb`, the paper's neighbourhood function:
    ``nlb(b)`` is the set of brokers reachable from ``b`` over exactly one
    edge, *excluding* ``b`` itself.
    """

    def __init__(self, brokers: Iterable[str], edges: Iterable[Tuple[str, str]] = ()):
        self._adjacency: Dict[str, Set[str]] = {broker: set() for broker in brokers}
        for a, b in edges:
            self.add_edge(a, b)

    # ------------------------------------------------------------------ build
    def add_broker(self, broker: str) -> None:
        self._adjacency.setdefault(broker, set())

    def add_edge(self, a: str, b: str) -> None:
        """Declare that a client may move between brokers ``a`` and ``b``."""
        if a == b:
            return
        self._adjacency.setdefault(a, set()).add(b)
        self._adjacency.setdefault(b, set()).add(a)

    # -------------------------------------------------------------------- nlb
    def nlb(self, broker: str) -> FrozenSet[str]:
        """The "next local broker" set: brokers one movement edge away from ``broker``."""
        if broker not in self._adjacency:
            raise KeyError(f"unknown broker {broker!r} in movement graph")
        return frozenset(self._adjacency[broker])

    def nlb_k(self, broker: str, k: int) -> FrozenSet[str]:
        """Brokers reachable within at most ``k`` movement edges, excluding ``broker``.

        ``k = 1`` is the paper's ``nlb``; larger ``k`` widens the shadow set
        (more robustness against fast movement or long disconnections, more
        overhead); ``k >= diameter`` degenerates to flooding.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        if broker not in self._adjacency:
            raise KeyError(f"unknown broker {broker!r} in movement graph")
        reached: Set[str] = {broker}
        frontier: Set[str] = {broker}
        for _ in range(k):
            frontier = {
                neighbour
                for node in frontier
                for neighbour in self._adjacency[node]
                if neighbour not in reached
            }
            if not frontier:
                break
            reached |= frontier
        reached.discard(broker)
        return frozenset(reached)

    def __call__(self, broker: str) -> FrozenSet[str]:
        return self.nlb(broker)

    # ------------------------------------------------------------------ views
    @property
    def brokers(self) -> List[str]:
        return sorted(self._adjacency.keys())

    def edges(self) -> List[Tuple[str, str]]:
        seen: Set[Tuple[str, str]] = set()
        for a, neighbours in self._adjacency.items():
            for b in neighbours:
                edge = tuple(sorted((a, b)))
                seen.add(edge)  # type: ignore[arg-type]
        return sorted(seen)

    def __contains__(self, broker: str) -> bool:
        return broker in self._adjacency

    def __len__(self) -> int:
        return len(self._adjacency)

    # --------------------------------------------------------------- analysis
    def average_degree(self) -> float:
        if not self._adjacency:
            return 0.0
        return sum(len(n) for n in self._adjacency.values()) / len(self._adjacency)


# ------------------------------------------------------------------- builders


def from_broker_network(network: BrokerNetwork) -> MovementGraph:
    """Movement graph = the broker network's own adjacency.

    "In general, the movement graph in logical mobility is a refinement of
    the graph of possible border brokers" (Sect. 1); when nothing better is
    known, the broker tree itself is the natural movement restriction.
    """
    graph = MovementGraph(network.broker_names())
    for a, b in network.broker_edges():
        graph.add_edge(a, b)
    return graph


def from_location_space(space: LocationSpace) -> MovementGraph:
    """Movement graph induced by a location space.

    Two brokers are movement-adjacent iff some location of one is adjacent to
    some location of the other (or they share a location boundary).  This is
    how GSM-style cell neighbourhood relations define the movement graph
    (Sect. 3.2: "the neighborhood relationship between [base stations]
    defines the movement graph for the system").
    """
    brokers = set()
    for location in space.locations:
        brokers.add(space.broker_of(location))
    graph = MovementGraph(brokers)
    for location in space.locations:
        broker = space.broker_of(location)
        for neighbour in space.neighbours_of(location):
            other = space.broker_of(neighbour)
            if other != broker:
                graph.add_edge(broker, other)
    return graph


def complete_graph(brokers: Iterable[str]) -> MovementGraph:
    """The flooding movement graph: every broker is every broker's neighbour."""
    brokers = list(brokers)
    graph = MovementGraph(brokers)
    for i, a in enumerate(brokers):
        for b in brokers[i + 1 :]:
            graph.add_edge(a, b)
    return graph


def grid_graph(rows: int, cols: int, name_of: Optional[Mapping[Tuple[int, int], str]] = None,
               diagonal: bool = False) -> MovementGraph:
    """A rows x cols grid of brokers (one base station per cell), 4- or 8-neighbourhood."""
    def default_name(r: int, c: int) -> str:
        return f"B_{r}_{c}"

    def name(r: int, c: int) -> str:
        if name_of is not None:
            return name_of[(r, c)]
        return default_name(r, c)

    graph = MovementGraph(name(r, c) for r in range(rows) for c in range(cols))
    deltas = [(1, 0), (0, 1)]
    if diagonal:
        deltas += [(1, 1), (1, -1)]
    for r in range(rows):
        for c in range(cols):
            for dr, dc in deltas:
                nr, nc = r + dr, c + dc
                if 0 <= nr < rows and 0 <= nc < cols:
                    graph.add_edge(name(r, c), name(nr, nc))
    return graph


def line_graph(brokers: Sequence[str]) -> MovementGraph:
    """A chain movement graph (the highway / route scenario)."""
    graph = MovementGraph(brokers)
    for a, b in zip(brokers, brokers[1:]):
        graph.add_edge(a, b)
    return graph

