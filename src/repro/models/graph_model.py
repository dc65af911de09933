"""Knowledge evolution on anonymous port-numbered graphs.

Generalizes Eq. (2) from the clique to arbitrary connected topologies,
with a semantic switch that matters off the clique and, from n = 5,
on it:

* ``include_back_ports=False`` (the paper's Eq. 2): node ``i`` receives,
  on its port ``p``, the previous knowledge of the neighbour behind ``p``.
* ``include_back_ports=True`` (the classical anonymous-network model of
  Yamashita-Kameda / Boldi et al.): the sender may address each port
  individually, so the receiver additionally learns *which of the
  sender's ports faces it*; the received item on port ``p`` becomes the
  pair ``(K_neighbour(t-1), back-port)``.

On the clique the two semantics agree on every port table of every
gcd = 1 shape with n <= 4, but not beyond: at shape (2, 3) the table
where node i's port p leads to its p-th smallest neighbour has limit 0
without back ports and 1 with them, and the Euclid protocol (whose
per-port payloads carry back-port information) elects a leader on it
(``tests/integration/test_port_semantics.py``).  Off the clique the
back-ports matter even more: e.g. the two sides of
``K_{m,n}`` can only be broken apart by port information travelling with
the messages.  The cited Codenotti et al. result (leader election on
``K_{m,n}`` iff ``gcd(m,n) = 1``) is reproduced under the classical
semantics.
"""

from __future__ import annotations

from ..randomness.realizations import NodeRealization
from .base import CommunicationModel
from .graph import GraphTopology
from .knowledge import BOTTOM_ID


class GraphMessagePassingModel(CommunicationModel):
    """Full-information knowledge on an anonymous port-numbered graph."""

    def __init__(
        self, topology: GraphTopology, *, include_back_ports: bool = False
    ):
        super().__init__(topology.n)
        self.topology = topology
        self.include_back_ports = include_back_ports
        # Static back-port table: back[i][p-1] = port of neighbour(i, p)
        # that faces i.
        self._back = tuple(
            tuple(
                topology.port_to(nbr, node)
                for nbr in topology.neighbours(node)
            )
            for node in range(topology.n)
        )

    def knowledge_ids(self, realization: NodeRealization) -> tuple[int, ...]:
        t = self._realization_length(realization)
        current = [BOTTOM_ID] * self.n
        for round_index in range(1, t + 1):
            previous = current
            current = []
            for node in range(self.n):
                if self.include_back_ports:
                    received: tuple = tuple(
                        (previous[nbr], back)
                        for nbr, back in zip(
                            self.topology.neighbours(node), self._back[node]
                        )
                    )
                else:
                    received = tuple(
                        previous[nbr]
                        for nbr in self.topology.neighbours(node)
                    )
                current.append(
                    self.interner.intern(
                        (
                            "graph",
                            previous[node],
                            realization[node][round_index - 1],
                            received,
                        )
                    )
                )
        return tuple(current)


__all__ = ["GraphMessagePassingModel"]
