"""Core network model: PoPs, routers, links, customers.

The model mirrors the pieces of the Abilene measurement infrastructure the
paper relies on:

* a **PoP** (point of presence) is the aggregation level of OD flows;
* each PoP hosts one or more backbone **routers** where sampled flow records
  are collected;
* **links** connect routers (and give the IGP its weighted graph);
* **customers** and peers attach to PoPs through access interfaces, and own
  address prefixes — this is what ingress/egress resolution works from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from repro.utils.validation import require

__all__ = ["PoP", "Router", "Link", "Customer", "Network"]


@dataclass(frozen=True)
class PoP:
    """A point of presence in the backbone.

    Parameters
    ----------
    name:
        Short identifier (e.g. ``"LOSA"``).
    city:
        Human-readable location.
    region_weight:
        Relative size of the population/traffic served by the PoP; used by
        the gravity model to set OD flow means.
    """

    name: str
    city: str = ""
    region_weight: float = 1.0

    def __post_init__(self) -> None:
        require(bool(self.name), "PoP name must be non-empty")
        require(self.region_weight > 0, "region_weight must be positive")


@dataclass(frozen=True)
class Router:
    """A backbone router located at a PoP."""

    name: str
    pop: str

    def __post_init__(self) -> None:
        require(bool(self.name), "Router name must be non-empty")
        require(bool(self.pop), "Router must belong to a PoP")


@dataclass(frozen=True)
class Link:
    """A unidirectional backbone link between two routers.

    ``igp_weight`` is the IS-IS metric used by shortest-path routing;
    ``capacity_bps`` is informational (used by examples, not by detection).
    """

    source: str
    target: str
    igp_weight: float = 1.0
    capacity_bps: float = 10e9

    def __post_init__(self) -> None:
        require(self.source != self.target, "Link endpoints must differ")
        require(self.igp_weight > 0, "igp_weight must be positive")
        require(self.capacity_bps > 0, "capacity_bps must be positive")


@dataclass(frozen=True)
class Customer:
    """A customer or peer network attached to a PoP.

    Customers own address prefixes; the PoP resolver maps a flow's source
    address to its ingress PoP through the customer attachment, and the
    destination address to its egress PoP through BGP.  ``multihomed_pops``
    lists alternative attachment points (used by the INGRESS-SHIFT anomaly).
    """

    name: str
    pop: str
    prefixes: Tuple[str, ...] = ()
    weight: float = 1.0
    multihomed_pops: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        require(bool(self.name), "Customer name must be non-empty")
        require(bool(self.pop), "Customer must attach to a PoP")
        require(self.weight > 0, "Customer weight must be positive")

    @property
    def attachment_pops(self) -> Tuple[str, ...]:
        """All PoPs the customer can use, primary first."""
        extra = tuple(p for p in self.multihomed_pops if p != self.pop)
        return (self.pop, *extra)


class Network:
    """A backbone network: PoPs, routers, links, and attached customers.

    The class is a thin, validated container with convenience queries;
    routing and traffic logic live in their own subpackages.
    """

    def __init__(
        self,
        pops: Sequence[PoP],
        routers: Sequence[Router] = (),
        links: Sequence[Link] = (),
        customers: Sequence[Customer] = (),
        name: str = "backbone",
    ) -> None:
        require(len(pops) >= 2, "a network needs at least two PoPs")
        self.name = name
        self._pops: Dict[str, PoP] = {}
        for pop in pops:
            if pop.name in self._pops:
                raise ValueError(f"duplicate PoP name {pop.name!r}")
            self._pops[pop.name] = pop

        self._routers: Dict[str, Router] = {}
        for router in routers:
            if router.name in self._routers:
                raise ValueError(f"duplicate router name {router.name!r}")
            if router.pop not in self._pops:
                raise ValueError(f"router {router.name!r} references unknown PoP {router.pop!r}")
            self._routers[router.name] = router

        # By default every PoP has one backbone router named after it.
        for pop in self._pops.values():
            default_router = f"{pop.name}-rtr"
            if not any(r.pop == pop.name for r in self._routers.values()):
                self._routers[default_router] = Router(name=default_router, pop=pop.name)

        self._links: List[Link] = []
        for link in links:
            self._validate_link(link)
            self._links.append(link)

        self._customers: Dict[str, Customer] = {}
        for customer in customers:
            if customer.name in self._customers:
                raise ValueError(f"duplicate customer name {customer.name!r}")
            for pop_name in customer.attachment_pops:
                if pop_name not in self._pops:
                    raise ValueError(
                        f"customer {customer.name!r} references unknown PoP {pop_name!r}"
                    )
            self._customers[customer.name] = customer

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def pops(self) -> List[PoP]:
        """PoPs in insertion order."""
        return list(self._pops.values())

    @property
    def pop_names(self) -> List[str]:
        """Names of all PoPs, in insertion order."""
        return list(self._pops.keys())

    @property
    def routers(self) -> List[Router]:
        """All backbone routers."""
        return list(self._routers.values())

    @property
    def links(self) -> List[Link]:
        """All unidirectional backbone links."""
        return list(self._links)

    @property
    def customers(self) -> List[Customer]:
        """All attached customers/peers."""
        return list(self._customers.values())

    @property
    def n_pops(self) -> int:
        """Number of PoPs."""
        return len(self._pops)

    @property
    def n_od_pairs(self) -> int:
        """Number of OD pairs, including the self pairs (paper: 11² = 121)."""
        return self.n_pops * self.n_pops

    def pop(self, name: str) -> PoP:
        """Look up a PoP by name."""
        try:
            return self._pops[name]
        except KeyError:
            raise KeyError(f"unknown PoP {name!r}") from None

    def router(self, name: str) -> Router:
        """Look up a router by name."""
        try:
            return self._routers[name]
        except KeyError:
            raise KeyError(f"unknown router {name!r}") from None

    def customer(self, name: str) -> Customer:
        """Look up a customer by name."""
        try:
            return self._customers[name]
        except KeyError:
            raise KeyError(f"unknown customer {name!r}") from None

    def routers_at(self, pop_name: str) -> List[Router]:
        """All routers located at *pop_name*."""
        self.pop(pop_name)
        return [r for r in self._routers.values() if r.pop == pop_name]

    def customers_at(self, pop_name: str) -> List[Customer]:
        """Customers primarily attached at *pop_name*."""
        self.pop(pop_name)
        return [c for c in self._customers.values() if c.pop == pop_name]

    def od_pairs(self) -> List[Tuple[str, str]]:
        """All (origin, destination) PoP-name pairs in row-major order.

        The ordering is the column ordering of the traffic-matrix timeseries
        ``X`` used throughout the library.
        """
        names = self.pop_names
        return [(o, d) for o in names for d in names]

    def od_index(self, origin: str, destination: str) -> int:
        """Column index of the OD pair in the traffic matrix."""
        names = self.pop_names
        try:
            i = names.index(origin)
            j = names.index(destination)
        except ValueError as exc:
            raise KeyError(f"unknown PoP in OD pair ({origin!r}, {destination!r})") from exc
        return i * len(names) + j

    # ------------------------------------------------------------------ #
    # mutation helpers (used by builders)
    # ------------------------------------------------------------------ #
    def add_customer(self, customer: Customer) -> None:
        """Attach an additional customer to the network."""
        if customer.name in self._customers:
            raise ValueError(f"duplicate customer name {customer.name!r}")
        for pop_name in customer.attachment_pops:
            self.pop(pop_name)
        self._customers[customer.name] = customer

    def add_link(self, link: Link) -> None:
        """Add a backbone link."""
        self._validate_link(link)
        self._links.append(link)

    # ------------------------------------------------------------------ #
    # graph views
    # ------------------------------------------------------------------ #
    def is_connected(self) -> bool:
        """Whether every PoP can reach every other PoP over backbone links."""
        forward: Dict[str, Set[str]] = {name: set() for name in self._pops}
        reverse: Dict[str, Set[str]] = {name: set() for name in self._pops}
        for link in self._links:
            src_pop = self._routers[link.source].pop
            dst_pop = self._routers[link.target].pop
            if src_pop != dst_pop:
                forward[src_pop].add(dst_pop)
                reverse[dst_pop].add(src_pop)
        start = next(iter(self._pops))
        return all(len(_reachable(adjacency, start)) == self.n_pops
                   for adjacency in (forward, reverse))

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _validate_link(self, link: Link) -> None:
        for endpoint in (link.source, link.target):
            if endpoint not in self._routers:
                raise ValueError(f"link endpoint {endpoint!r} is not a known router")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network(name={self.name!r}, pops={self.n_pops}, "
            f"routers={len(self._routers)}, links={len(self._links)}, "
            f"customers={len(self._customers)})"
        )

    def __iter__(self) -> Iterator[PoP]:
        return iter(self._pops.values())


def _reachable(adjacency: Dict[str, Set[str]], start: str) -> Set[str]:
    """The nodes reachable from *start* (itself included)."""
    seen = {start}
    stack = [start]
    while stack:
        for neighbour in adjacency[stack.pop()]:
            if neighbour not in seen:
                seen.add(neighbour)
                stack.append(neighbour)
    return seen
