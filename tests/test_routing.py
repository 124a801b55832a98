"""Unit tests for IGP routing, BGP egress resolution, configs, and the resolver."""

import pytest

from repro.routing import (
    BGPTable,
    IGPRouting,
    PoPResolver,
    RoutingSnapshot,
    SnapshotSeries,
    anonymize_address,
    build_router_configs,
)
from repro.routing.config import ingress_prefix_table
from repro.routing.prefixes import parse_ipv4
from repro.flows.records import FiveTuple, FlowRecord
from repro.topology import TopologyBuilder


def _line_network():
    """A -- B -- C line topology with one customer per PoP."""
    return (TopologyBuilder("line")
            .add_pop("A").add_pop("B").add_pop("C")
            .connect("A", "B", weight=10).connect("B", "C", weight=10)
            .add_customer("ca", "A", prefixes=("10.1.0.0/16",))
            .add_customer("cb", "B", prefixes=("10.2.0.0/16",))
            .add_customer("cc", "C", prefixes=("10.3.0.0/16",), multihomed_pops=("A",))
            .build())


class TestIGPRouting:
    def test_shortest_path_follows_weights(self, abilene):
        igp = IGPRouting(abilene)
        path = igp.pop_path("SNVA", "LOSA")
        assert path == ["SNVA", "LOSA"]

    def test_multi_hop_path_endpoints(self, abilene):
        igp = IGPRouting(abilene)
        path = igp.pop_path("STTL", "ATLA")
        assert path[0] == "STTL" and path[-1] == "ATLA"
        assert len(path) >= 3

    def test_self_pair_path(self, abilene):
        igp = IGPRouting(abilene)
        assert igp.pop_path("CHIN", "CHIN") == ["CHIN"]
        assert igp.distance("CHIN", "CHIN") == 0.0

    def test_distance_symmetric_on_symmetric_topology(self, abilene):
        igp = IGPRouting(abilene)
        assert igp.distance("NYCM", "LOSA") == pytest.approx(
            igp.distance("LOSA", "NYCM"))

    def test_all_pairs_reachable(self, abilene):
        igp = IGPRouting(abilene)
        for origin in abilene.pop_names:
            for destination in abilene.pop_names:
                assert igp.is_reachable(origin, destination)

    def test_failed_pop_unreachable(self):
        net = _line_network()
        igp = IGPRouting(net, failed_pops=["B"])
        assert not igp.is_reachable("A", "C")
        assert igp.pop_path("A", "C") == []
        assert igp.distance("A", "C") == float("inf")

    def test_failed_link_reroutes_or_disconnects(self, abilene):
        healthy = IGPRouting(abilene)
        broken = healthy.with_failures(failed_links=[("SNVA-rtr", "LOSA-rtr")])
        path = broken.pop_path("SNVA", "LOSA")
        # SNVA can still reach LOSA the long way (via STTL/DNVR/... or HSTN).
        assert path[0] == "SNVA" and path[-1] == "LOSA"
        assert len(path) > 2

    def test_closest_pop_hot_potato(self, abilene):
        igp = IGPRouting(abilene)
        # From Seattle, Sunnyvale is closer than New York.
        assert igp.closest_pop(["SNVA", "NYCM"], "STTL") == "SNVA"

    def test_next_hop(self):
        net = _line_network()
        igp = IGPRouting(net)
        assert igp.next_hop("A", "C") == "B"
        assert igp.next_hop("A", "A") is None

    def test_one_way_link_routes_one_way(self):
        net = (TopologyBuilder("one-way")
               .add_pop("A").add_pop("B")
               .connect("A", "B", weight=5, bidirectional=False)
               .build())
        igp = IGPRouting(net)
        assert igp.router_path("A", "B") == ["A-rtr", "B-rtr"]
        assert igp.distance("A", "B") == 5.0
        assert not igp.is_reachable("B", "A")
        assert igp.router_path("B", "A") == []
        assert igp.distance("B", "A") == float("inf")

    @pytest.mark.parametrize("weights, metric", [((10, 3), 3.0), ((3, 10), 10.0)])
    def test_last_parallel_link_sets_metric(self, weights, metric):
        builder = TopologyBuilder("parallel").add_pop("A").add_pop("B")
        for weight in weights:
            builder.connect("A", "B", weight=weight)
        assert IGPRouting(builder.build()).distance("A", "B") == metric


class TestBGPTable:
    def test_from_customers_covers_customer_prefixes(self):
        net = _line_network()
        table = BGPTable.from_customers(net)
        route = table.lookup(parse_ipv4("10.2.5.5"))
        assert route is not None
        assert route.egress_pops == ("B",)

    def test_lookup_miss(self):
        net = _line_network()
        table = BGPTable.from_customers(net)
        assert table.lookup(parse_ipv4("203.0.113.1")) is None

    def test_multihomed_prefix_hot_potato(self):
        net = _line_network()
        table = BGPTable.from_customers(net)
        igp = IGPRouting(net)
        address = parse_ipv4("10.3.1.1")  # cc is homed at C, multihomed to A
        assert table.egress_pop(address, ingress_pop="A", igp=igp) == "A"
        assert table.egress_pop(address, ingress_pop="C", igp=igp) == "C"

    def test_announce_validates_pop(self):
        net = _line_network()
        table = BGPTable(net)
        with pytest.raises(KeyError):
            table.announce("10.9.0.0/16", ["NOPE"])

    def test_coverage_fraction(self):
        net = _line_network()
        table = BGPTable.from_customers(net)
        covered = parse_ipv4("10.1.0.1")
        uncovered = parse_ipv4("198.51.100.1")
        assert table.coverage_fraction([covered, uncovered]) == pytest.approx(0.5)


class TestRouterConfigs:
    def test_every_customer_gets_an_interface(self, abilene):
        configs = build_router_configs(abilene)
        customers_with_interfaces = {
            interface.customer
            for config in configs.values()
            for interface in config.interfaces
        }
        assert customers_with_interfaces == {c.name for c in abilene.customers}

    def test_multihomed_customer_appears_at_both_pops(self, abilene):
        configs = build_router_configs(abilene)
        pops_with_calren = {
            config.pop for config in configs.values()
            if any(i.customer == "CALREN" for i in config.interfaces)
        }
        assert pops_with_calren == {"LOSA", "SNVA"}

    def test_render_contains_interfaces(self):
        net = _line_network()
        configs = build_router_configs(net)
        text = configs["A-rtr"].render()
        assert "ca" in text and "10.1.0.0/16" in text

    def test_ingress_prefix_table_primary_attachment_wins(self):
        net = _line_network()
        configs = build_router_configs(net)
        table = ingress_prefix_table(configs.values(), net)
        # cc's prefix is configured at C (primary) and A (multihomed);
        # the primary attachment should win.
        assert table.lookup(parse_ipv4("10.3.0.1")) == "C"


class TestAnonymization:
    def test_zeroes_low_bits(self):
        address = parse_ipv4("10.1.2.255")
        anonymized = anonymize_address(address, bits=11)
        assert anonymized & ((1 << 11) - 1) == 0
        assert anonymized <= address

    def test_zero_bits_is_identity(self):
        address = parse_ipv4("10.1.2.3")
        assert anonymize_address(address, bits=0) == address


class TestPoPResolver:
    def _record(self, src, dst, router=None):
        key = FiveTuple(src_address=parse_ipv4(src), dst_address=parse_ipv4(dst),
                        src_port=1234, dst_port=80, protocol=6)
        return FlowRecord(key=key, start_time=0, end_time=10, bytes=1000, packets=10,
                          observing_router=router)

    def test_resolves_by_addresses(self):
        net = _line_network()
        resolver = PoPResolver(net)
        assert resolver.resolve(parse_ipv4("10.1.0.5"), parse_ipv4("10.2.0.9")) == ("A", "B")

    def test_observing_router_sets_ingress(self):
        net = _line_network()
        resolver = PoPResolver(net)
        ingress = resolver.resolve_ingress(parse_ipv4("203.0.113.1"),
                                           observing_router="B-rtr")
        assert ingress == "B"

    def test_unknown_source_fails_ingress(self):
        net = _line_network()
        resolver = PoPResolver(net)
        assert resolver.resolve_ingress(parse_ipv4("203.0.113.1")) is None

    def test_unknown_destination_fails_egress(self):
        net = _line_network()
        resolver = PoPResolver(net)
        assert resolver.resolve_egress(parse_ipv4("203.0.113.1")) is None

    def test_anonymization_does_not_break_resolution(self):
        # Customer prefixes are /16, much shorter than the 11 anonymized
        # bits, so egress resolution still succeeds — the paper's argument.
        net = _line_network()
        resolver = PoPResolver(net)
        assert resolver.resolve_egress(parse_ipv4("10.3.255.255")) == "C"

    def test_resolve_records_statistics(self):
        net = _line_network()
        resolver = PoPResolver(net)
        records = [
            self._record("10.1.0.1", "10.2.0.1"),
            self._record("10.2.0.1", "10.3.0.1"),
            self._record("203.0.113.5", "10.2.0.1"),   # unresolvable ingress
        ]
        resolved, stats = resolver.resolve_records(records)
        assert len(resolved) == 2
        assert stats.total_flows == 3
        assert stats.resolved_flows == 2
        assert stats.unresolved_ingress == 1
        assert 0.6 < stats.flow_resolution_rate < 0.7
        assert all(r.od_pair is not None for r in resolved)


class TestSnapshotSeries:
    def test_default_snapshot_everywhere(self, abilene):
        series = SnapshotSeries(abilene, n_days=3)
        snapshot = series.snapshot_for_day(1)
        assert isinstance(snapshot, RoutingSnapshot)
        assert snapshot.failed_pops == ()

    def test_apply_failure_only_affects_that_day(self, abilene):
        series = SnapshotSeries(abilene, n_days=3)
        series.apply_failure(1, failed_pops=["LOSA"])
        assert series.snapshot_for_day(0).failed_pops == ()
        assert series.snapshot_for_day(1).failed_pops == ("LOSA",)
        assert not series.snapshot_for_day(1).igp.is_reachable("LOSA", "NYCM")
        assert series.days_with_failures() == [1]

    def test_day_of_and_time_lookup(self, abilene):
        series = SnapshotSeries(abilene, n_days=2, start_seconds=0)
        assert series.day_of(10) == 0
        assert series.day_of(86_400 + 5) == 1
        with pytest.raises(ValueError):
            series.day_of(3 * 86_400)

    def test_out_of_range_day(self, abilene):
        series = SnapshotSeries(abilene, n_days=2)
        with pytest.raises(ValueError):
            series.snapshot_for_day(5)
