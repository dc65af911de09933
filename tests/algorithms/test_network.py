"""Unit tests for the synchronous network simulator."""

from types import MappingProxyType

import pytest

from repro.algorithms import (
    BlackboardNetwork,
    CliqueNetwork,
    NodeProtocol,
)
from repro.models import round_robin_assignment
from repro.randomness import FixedBitSource, RandomnessConfiguration


class EchoNode(NodeProtocol):
    """Records everything; decides after a fixed number of rounds."""

    def __init__(self, decide_after=2):
        self.decide_after = decide_after
        self.bits = []
        self.inboxes = []
        self.round = 0

    def compose(self):
        return ("echo", self.round)

    def absorb(self, bit, inbox):
        self.bits.append(bit)
        self.inboxes.append(inbox)
        self.round += 1

    def output(self):
        return self.round if self.round >= self.decide_after else None


class PerPortNode(NodeProtocol):
    """Sends a distinct payload on each port."""

    def __init__(self):
        self.received = []

    def compose(self):
        return {port: ("to-port", port) for port in range(1, self.ctx.n)}

    def absorb(self, bit, inbox):
        self.received.append(inbox)

    def output(self):
        return "done" if self.received else None


class ReadOnlyPerPortNode(PerPortNode):
    """Sends its per-port payloads as a read-only view: a ``Mapping``
    that is not a ``dict``."""

    def compose(self):
        return MappingProxyType(super().compose())


class FirstPortOnlyNode(PerPortNode):
    """Addresses only port 1, leaving every other port without a
    payload."""

    def compose(self):
        return {1: "only-port-1"}


class TestBlackboardNetwork:
    def test_runs_until_decided(self):
        alpha = RandomnessConfiguration.independent(3)
        result = BlackboardNetwork(alpha, EchoNode).run(max_rounds=10)
        assert result.all_decided
        assert result.rounds == 2
        assert result.decision_rounds == (2, 2, 2)

    def test_max_rounds_cap(self):
        alpha = RandomnessConfiguration.independent(2)
        result = BlackboardNetwork(
            alpha, lambda: EchoNode(decide_after=99)
        ).run(max_rounds=5)
        assert not result.all_decided
        assert result.rounds == 5

    def test_inbox_excludes_own_message(self):
        alpha = RandomnessConfiguration.independent(3)
        network = BlackboardNetwork(alpha, EchoNode)
        network.run(max_rounds=1)
        for node in network.nodes:
            assert len(node.inboxes[0]) == 2

    def test_same_source_nodes_get_same_bits(self):
        alpha = RandomnessConfiguration.from_group_sizes([2, 1])
        network = BlackboardNetwork(alpha, EchoNode, seed=7)
        network.run(max_rounds=4)
        assert network.nodes[0].bits == network.nodes[1].bits

    def test_scripted_sources(self):
        alpha = RandomnessConfiguration.from_group_sizes([2, 1])
        sources = [FixedBitSource("0101"), FixedBitSource("1111")]
        network = BlackboardNetwork(
            alpha, lambda: EchoNode(decide_after=3), sources=sources
        )
        network.run(max_rounds=3)
        assert network.nodes[0].bits == [0, 1, 0]
        assert network.nodes[2].bits == [1, 1, 1]

    def test_per_port_payload_rejected(self):
        alpha = RandomnessConfiguration.independent(3)
        network = BlackboardNetwork(alpha, PerPortNode)
        with pytest.raises(TypeError):
            network.run(max_rounds=1)

    def test_read_only_mapping_payload_rejected(self):
        alpha = RandomnessConfiguration.independent(3)
        network = BlackboardNetwork(alpha, ReadOnlyPerPortNode)
        with pytest.raises(TypeError, match="single payload"):
            network.run(max_rounds=1)

    def test_source_count_validation(self):
        alpha = RandomnessConfiguration.independent(2)
        with pytest.raises(ValueError):
            BlackboardNetwork(alpha, EchoNode, sources=[FixedBitSource("0")])


class TestCliqueNetwork:
    def test_per_port_delivery(self):
        alpha = RandomnessConfiguration.independent(3)
        ports = round_robin_assignment(3)
        network = CliqueNetwork(alpha, ports, PerPortNode)
        network.run(max_rounds=1)
        # Node i receives, on its port p, the payload the sender addressed
        # to *its own* port facing i.
        for i, node in enumerate(network.nodes):
            inbox = node.received[0]
            for port in range(1, 3):
                sender = ports.neighbour(i, port)
                expected_port = ports.port_to(sender, i)
                assert inbox[port - 1] == ("to-port", expected_port)

    def test_read_only_mapping_is_delivered_per_port(self):
        alpha = RandomnessConfiguration.independent(4)
        ports = round_robin_assignment(4)
        plain = CliqueNetwork(alpha, ports, PerPortNode)
        plain.run(max_rounds=1)
        viewed = CliqueNetwork(alpha, ports, ReadOnlyPerPortNode)
        viewed.run(max_rounds=1)
        assert [node.received for node in viewed.nodes] == [
            node.received for node in plain.nodes
        ]

    def test_missing_port_payload_rejected(self):
        alpha = RandomnessConfiguration.independent(3)
        network = CliqueNetwork(
            alpha, round_robin_assignment(3), FirstPortOnlyNode
        )
        with pytest.raises(ValueError, match="composed no payload"):
            network.run(max_rounds=1)

    def test_tuple_payload_reaches_every_neighbour_whole(self):
        # A tuple is a sequence, not a Mapping: it is broadcast as one
        # payload, never indexed by port.
        alpha = RandomnessConfiguration.independent(3)
        network = CliqueNetwork(
            alpha, round_robin_assignment(3), EchoNode
        )
        network.run(max_rounds=1)
        for node in network.nodes:
            assert node.inboxes[0] == (("echo", 0), ("echo", 0))

    def test_broadcast_payload(self):
        alpha = RandomnessConfiguration.independent(3)
        network = CliqueNetwork(
            alpha, round_robin_assignment(3), EchoNode
        )
        result = network.run(max_rounds=3)
        assert result.all_decided

    def test_ports_alpha_mismatch(self):
        alpha = RandomnessConfiguration.independent(3)
        with pytest.raises(ValueError):
            CliqueNetwork(alpha, round_robin_assignment(4), EchoNode)

    def test_leaders_helper(self):
        alpha = RandomnessConfiguration.independent(2)

        class OneLeader(NodeProtocol):
            def __init__(self):
                self.out = None

            def compose(self):
                return ()

            def absorb(self, bit, inbox):
                self.out = bit  # arbitrary but decided

            def output(self):
                return self.out

        network = CliqueNetwork(
            alpha,
            round_robin_assignment(2),
            OneLeader,
            sources=[FixedBitSource("1"), FixedBitSource("0")],
        )
        result = network.run(max_rounds=1)
        assert result.leaders() == (0,)
