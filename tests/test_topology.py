"""Unit tests for the topology substrate (network model, Abilene, builder)."""

import pytest

from repro.topology import (
    ABILENE_POP_NAMES,
    Customer,
    Link,
    Network,
    PoP,
    Router,
    TopologyBuilder,
    abilene_topology,
    random_backbone,
)


class TestDataclasses:
    def test_pop_requires_name_and_positive_weight(self):
        with pytest.raises(ValueError):
            PoP(name="", city="x")
        with pytest.raises(ValueError):
            PoP(name="A", region_weight=0)

    def test_link_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Link(source="a", target="a")

    def test_customer_attachment_pops_deduplicates(self):
        customer = Customer(name="c", pop="A", multihomed_pops=("A", "B"))
        assert customer.attachment_pops == ("A", "B")


class TestNetwork:
    def _toy(self):
        return (TopologyBuilder("toy")
                .add_pop("A").add_pop("B").add_pop("C")
                .connect("A", "B", weight=1).connect("B", "C", weight=1)
                .add_customer("ca", "A", prefixes=("10.0.0.0/16",))
                .build())

    def test_od_pairs_count_and_order(self):
        net = self._toy()
        assert net.n_od_pairs == 9
        pairs = net.od_pairs()
        assert pairs[0] == ("A", "A")
        assert pairs[-1] == ("C", "C")
        assert len(pairs) == 9

    def test_od_index_consistent_with_od_pairs(self):
        net = self._toy()
        for index, (origin, destination) in enumerate(net.od_pairs()):
            assert net.od_index(origin, destination) == index

    def test_od_index_unknown_pop(self):
        net = self._toy()
        with pytest.raises(KeyError):
            net.od_index("A", "Z")

    def test_duplicate_pop_rejected(self):
        with pytest.raises(ValueError):
            Network(pops=[PoP("A"), PoP("A")])

    def test_default_router_created_per_pop(self):
        net = self._toy()
        assert len(net.routers_at("A")) == 1
        assert net.routers_at("A")[0].pop == "A"

    def test_customers_at(self):
        net = self._toy()
        assert [c.name for c in net.customers_at("A")] == ["ca"]
        assert net.customers_at("B") == []

    def test_is_connected_true_for_connected(self):
        assert self._toy().is_connected()

    def test_is_connected_false_without_links(self):
        net = Network(pops=[PoP("A"), PoP("B")])
        assert not net.is_connected()

    def test_add_link_validates_routers(self):
        net = self._toy()
        with pytest.raises(ValueError):
            net.add_link(Link(source="A-rtr", target="nonexistent"))

    def test_add_customer_validates_pop(self):
        net = self._toy()
        with pytest.raises(KeyError):
            net.add_customer(Customer(name="x", pop="Z"))

    def test_is_connected_needs_both_directions(self):
        one_way = (TopologyBuilder("one-way")
                   .add_pop("A").add_pop("B").add_pop("C")
                   .connect("A", "B").connect("B", "C")
                   .connect("C", "A", bidirectional=False)
                   .build())
        assert one_way.is_connected()
        dead_end = (TopologyBuilder("dead-end")
                    .add_pop("A").add_pop("B").add_pop("C")
                    .connect("A", "B").connect("B", "C", bidirectional=False)
                    .build())
        assert not dead_end.is_connected()

    def test_is_connected_ignores_intra_pop_links(self):
        net = Network(pops=[PoP("A"), PoP("B")],
                      routers=[Router("a1", "A"), Router("a2", "A"), Router("b1", "B")],
                      links=[Link("a1", "a2"), Link("a2", "a1")])
        assert not net.is_connected()


class TestAbilene:
    def test_eleven_pops_and_121_od_pairs(self, abilene):
        assert abilene.n_pops == 11
        assert abilene.n_od_pairs == 121  # the paper's p

    def test_pop_names_match_operational_codes(self, abilene):
        assert set(abilene.pop_names) == set(ABILENE_POP_NAMES)

    def test_connected(self, abilene):
        assert abilene.is_connected()

    def test_every_pop_has_customers(self, abilene):
        for pop in abilene.pop_names:
            assert len(abilene.customers_at(pop)) >= 1

    def test_calren_is_multihomed_losa_snva(self, abilene):
        calren = abilene.customer("CALREN")
        assert calren.pop == "LOSA"
        assert "SNVA" in calren.multihomed_pops

    def test_customer_prefixes_are_parseable(self, abilene):
        from repro.routing.prefixes import Prefix
        for customer in abilene.customers:
            for prefix in customer.prefixes:
                Prefix.parse(prefix)  # should not raise

    def test_customers_per_pop_limit(self):
        limited = abilene_topology(customers_per_pop=1)
        for pop in limited.pop_names:
            assert len(limited.customers_at(pop)) <= 1


class TestRandomBackbone:
    @pytest.mark.parametrize("n_pops", [2, 4, 8])
    def test_connected_for_various_sizes(self, n_pops):
        net = random_backbone(n_pops, seed=3)
        assert net.n_pops == n_pops
        assert net.is_connected()

    def test_reproducible(self):
        a = random_backbone(6, seed=9)
        b = random_backbone(6, seed=9)
        assert [l.source for l in a.links] == [l.source for l in b.links]

    def test_customers_created(self):
        net = random_backbone(4, seed=1, customers_per_pop=3)
        for pop in net.pop_names:
            assert len(net.customers_at(pop)) == 3

    def test_rejects_single_pop(self):
        with pytest.raises(ValueError):
            random_backbone(1)
