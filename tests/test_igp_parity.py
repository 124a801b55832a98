"""IGPRouting's in-module Dijkstra against networkx as the reference.

The reference graph is what ``IGPRouting`` used to route over: a
``networkx.DiGraph`` with every router as a node in ``Network.routers``
order and every link as an edge, so a later parallel link overwrites an
earlier one's weight; failed PoPs' routers and failed links are removed.
Distances and paths must match in value and come keyed in settle order,
and the hot-potato ``closest_pop`` choice must match for every source PoP.
"""

from collections import Counter

import pytest

from repro.routing import IGPRouting
from repro.topology import (
    Link,
    Network,
    PoP,
    Router,
    TopologyBuilder,
    abilene_topology,
    random_backbone,
)

nx = pytest.importorskip("networkx")


def _reference_graph(network, failed_pops=(), failed_links=()):
    graph = nx.DiGraph()
    for router in network.routers:
        graph.add_node(router.name)
    for link in network.links:
        graph.add_edge(link.source, link.target, weight=link.igp_weight)
    for pop in failed_pops:
        graph.remove_nodes_from(router.name for router in network.routers_at(pop))
    for src, dst in failed_links:
        if graph.has_edge(src, dst):
            graph.remove_edge(src, dst)
    return graph


def _reference_closest(network, graph, reference, candidates, from_pop, failed_pops):
    def default_router(pop):
        if pop in failed_pops:
            return None
        return next((r.name for r in network.routers_at(pop) if r.name in graph), None)

    best, best_distance = None, float("inf")
    for pop in candidates:
        if pop in failed_pops:
            continue
        src, dst = default_router(from_pop), default_router(pop)
        if from_pop == pop:
            distance = 0.0
        elif src is None or dst is None:
            distance = float("inf")
        else:
            distance = reference[src][0].get(dst, float("inf"))
        if distance < best_distance:
            best, best_distance = pop, distance
    return best


def _two_router_pops():
    """Two routers per PoP, intra-PoP links, and a heavier parallel link."""
    pops = [PoP(name) for name in "ABC"]
    routers = [Router(f"{pop.name}{i}", pop.name) for pop in pops for i in (1, 2)]
    links = []
    for src, dst, weight in [("A1", "A2", 1), ("B1", "B2", 1), ("C1", "C2", 1),
                             ("A2", "B1", 5), ("B2", "C1", 5), ("A1", "C2", 12),
                             ("C2", "A1", 3), ("A2", "B1", 9)]:
        links += [Link(src, dst, weight), Link(dst, src, weight)]
    return Network(pops=pops, routers=routers, links=links, name="two-router")


def _unit_grid():
    """A 3x3 grid of unit-weight links: many equal-cost paths to break ties on."""
    builder = TopologyBuilder("grid")
    names = [[f"G{row}{col}" for col in range(3)] for row in range(3)]
    for row in names:
        for name in row:
            builder.add_pop(name)
    for r in range(3):
        for c in range(3):
            if c + 1 < 3:
                builder.connect(names[r][c], names[r][c + 1])
            if r + 1 < 3:
                builder.connect(names[r][c], names[r + 1][c])
    return builder.build()


NETWORKS = {
    "abilene": abilene_topology,
    "two_router": _two_router_pops,
    "unit_grid": _unit_grid,
    **{f"random{n}_seed{seed}": (lambda n=n, seed=seed: random_backbone(n, seed=seed))
       for n in (4, 8, 16, 32) for seed in (3, 81, 2004)},
}


def _failures(network, kind):
    pops = network.pop_names
    if kind == "none":
        return (), ()
    if kind == "pop":
        return (pops[len(pops) // 2],), ()
    links = network.links
    failed_links = [(link.source, link.target) for link in links[:: max(1, len(links) // 4)]]
    if kind == "links":
        return (), failed_links
    return (pops[-1],), failed_links


@pytest.mark.parametrize("kind", ["none", "pop", "links", "pop_and_links"])
@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_matches_networkx(name, kind):
    network = NETWORKS[name]()
    failed_pops, failed_links = _failures(network, kind)
    igp = IGPRouting(network, failed_links=failed_links, failed_pops=failed_pops)
    graph = _reference_graph(network, failed_pops, failed_links)
    reference = {source: nx.single_source_dijkstra(graph, source, weight="weight")
                 for source in graph.nodes}

    assert list(igp._distances) == list(reference)
    assert list(igp._paths) == list(reference)
    for source, (ref_distances, ref_paths) in reference.items():
        assert list(igp._distances[source].items()) == list(ref_distances.items())
        assert list(igp._paths[source]) == list(ref_distances)
        assert igp._paths[source] == ref_paths

    pops = network.pop_names
    for from_pop in pops:
        for candidates in (pops, pops[::-1], pops[1::2]):
            assert igp.closest_pop(candidates, from_pop) == _reference_closest(
                network, graph, reference, candidates, from_pop, set(failed_pops))


def test_wide_backbone_has_parallel_links():
    """The p=1024 benchmark backbone exercises the last-link-wins rule."""
    network = random_backbone(32, seed=2004)
    pairs = Counter((link.source, link.target) for link in network.links)
    assert sum(1 for n in pairs.values() if n > 1) > 0
