"""IS-IS-like intra-domain routing.

The paper's measurement pipeline uses ISIS (plus BGP) tables to resolve the
egress PoP of each flow.  Here we compute shortest paths over the backbone
router graph with Dijkstra (a binary heap over a plain adjacency map),
expose next-hop / path / egress queries, and support link and PoP failures
so that the OUTAGE and INGRESS-SHIFT anomalies can reroute traffic the way a
real IGP would.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.topology.network import Network
from repro.utils.validation import require

__all__ = ["IGPRouting"]

#: ``{router: {neighbour: igp_weight}}`` over the routers and links in service.
Adjacency = Dict[str, Dict[str, float]]


def _dijkstra(adjacency: Adjacency, source: str
              ) -> Tuple[Dict[str, float], Dict[str, List[str]]]:
    """Distances and shortest paths from *source*, both keyed in settle order.

    Ties break the way a heap of ``(distance, push counter, node)`` keys
    does: a node's path extends its predecessor at the last strict
    improvement of its tentative distance.
    """
    distances: Dict[str, float] = {}
    paths: Dict[str, List[str]] = {}
    tentative: Dict[str, float] = {source: 0}
    candidates: Dict[str, List[str]] = {source: [source]}
    pushes = count()
    fringe = [(0, next(pushes), source)]
    while fringe:
        distance, _, node = heapq.heappop(fringe)
        if node in distances:
            continue
        distances[node] = distance
        paths[node] = candidates[node]
        for neighbour, weight in adjacency[node].items():
            reach = distance + weight
            if neighbour in distances or (neighbour in tentative
                                          and reach >= tentative[neighbour]):
                continue
            tentative[neighbour] = reach
            candidates[neighbour] = paths[node] + [neighbour]
            heapq.heappush(fringe, (reach, next(pushes), neighbour))
    return distances, paths


class IGPRouting:
    """Shortest-path routing over a :class:`~repro.topology.network.Network`.

    Parameters
    ----------
    network:
        The backbone network.
    failed_links:
        Router-level directed links ``(src_router, dst_router)`` to exclude,
        e.g. during a simulated outage.
    failed_pops:
        PoPs whose routers are entirely removed from the graph (a full PoP
        outage, like the LOSA maintenance event in the paper).

    Of several parallel links between the same two routers, the last one in
    ``network.links`` sets the metric.
    """

    def __init__(
        self,
        network: Network,
        failed_links: Iterable[Tuple[str, str]] = (),
        failed_pops: Iterable[str] = (),
    ) -> None:
        self._network = network
        self._failed_links: FrozenSet[Tuple[str, str]] = frozenset(failed_links)
        self._failed_pops: FrozenSet[str] = frozenset(failed_pops)
        for pop in self._failed_pops:
            network.pop(pop)  # validates existence
        self._adjacency = self._build_adjacency()
        self._paths: Dict[str, Dict[str, List[str]]] = {}
        self._distances: Dict[str, Dict[str, float]] = {}
        for source in self._adjacency:
            self._distances[source], self._paths[source] = _dijkstra(self._adjacency, source)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build_adjacency(self) -> Adjacency:
        adjacency: Adjacency = {router.name: {} for router in self._network.routers
                                if router.pop not in self._failed_pops}
        for link in self._network.links:
            if (link.source in adjacency and link.target in adjacency
                    and (link.source, link.target) not in self._failed_links):
                adjacency[link.source][link.target] = link.igp_weight
        return adjacency

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def network(self) -> Network:
        """The underlying network."""
        return self._network

    @property
    def failed_pops(self) -> FrozenSet[str]:
        """PoPs excluded from the routing graph."""
        return self._failed_pops

    @property
    def failed_links(self) -> FrozenSet[Tuple[str, str]]:
        """Router-level links excluded from the routing graph."""
        return self._failed_links

    def is_reachable(self, src_pop: str, dst_pop: str) -> bool:
        """Whether traffic from *src_pop* can reach *dst_pop*."""
        if src_pop in self._failed_pops or dst_pop in self._failed_pops:
            return False
        if src_pop == dst_pop:
            return True
        src_router = self._default_router(src_pop)
        dst_router = self._default_router(dst_pop)
        if src_router is None or dst_router is None:
            return False
        return dst_router in self._paths.get(src_router, {})

    def router_path(self, src_pop: str, dst_pop: str) -> List[str]:
        """Router-level shortest path between two PoPs.

        Returns an empty list when the destination is unreachable, and a
        single-element list for intra-PoP (self-pair) traffic.
        """
        self._network.pop(src_pop)
        self._network.pop(dst_pop)
        src_router = self._default_router(src_pop)
        dst_router = self._default_router(dst_pop)
        if src_router is None or dst_router is None:
            return []
        if src_pop == dst_pop:
            return [src_router]
        return list(self._paths.get(src_router, {}).get(dst_router, []))

    def pop_path(self, src_pop: str, dst_pop: str) -> List[str]:
        """PoP-level shortest path (deduplicated router path)."""
        path = self.router_path(src_pop, dst_pop)
        pops: List[str] = []
        for router_name in path:
            pop = self._network.router(router_name).pop
            if not pops or pops[-1] != pop:
                pops.append(pop)
        return pops

    def distance(self, src_pop: str, dst_pop: str) -> float:
        """IGP distance between two PoPs (``inf`` when unreachable)."""
        if src_pop == dst_pop:
            return 0.0
        src_router = self._default_router(src_pop)
        dst_router = self._default_router(dst_pop)
        if src_router is None or dst_router is None:
            return float("inf")
        return float(self._distances.get(src_router, {}).get(dst_router, float("inf")))

    def next_hop(self, src_pop: str, dst_pop: str) -> Optional[str]:
        """Next-hop PoP from *src_pop* toward *dst_pop* (``None`` if unreachable)."""
        path = self.pop_path(src_pop, dst_pop)
        if len(path) < 2:
            return None
        return path[1]

    def closest_pop(self, candidate_pops: Sequence[str], from_pop: str) -> Optional[str]:
        """The candidate PoP with minimum IGP distance from *from_pop*.

        Used for hot-potato style egress selection when a destination prefix
        is reachable through multiple egress PoPs.  Returns ``None`` when no
        candidate is reachable.
        """
        require(len(candidate_pops) > 0, "candidate_pops must be non-empty")
        best: Optional[str] = None
        best_distance = float("inf")
        for pop in candidate_pops:
            if pop in self._failed_pops:
                continue
            dist = self.distance(from_pop, pop)
            if dist < best_distance:
                best, best_distance = pop, dist
        return best

    def with_failures(
        self,
        failed_links: Iterable[Tuple[str, str]] = (),
        failed_pops: Iterable[str] = (),
    ) -> "IGPRouting":
        """Return a new routing instance with additional failures applied."""
        return IGPRouting(
            self._network,
            failed_links=set(self._failed_links) | set(failed_links),
            failed_pops=set(self._failed_pops) | set(failed_pops),
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _default_router(self, pop_name: str) -> Optional[str]:
        if pop_name in self._failed_pops:
            return None
        routers = self._network.routers_at(pop_name)
        for router in routers:
            if router.name in self._adjacency:
                return router.name
        return None
