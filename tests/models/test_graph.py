"""Unit tests for anonymous graph topologies and their knowledge model."""

import pytest

from repro.models import (
    GraphMessagePassingModel,
    GraphTopology,
    MessagePassingModel,
    round_robin_assignment,
)


class TestConstruction:
    def test_validates_symmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            GraphTopology([(1,), ()])

    def test_validates_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            GraphTopology([(0, 1), (0,)])

    def test_validates_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            GraphTopology([(1, 1), (0, 0)])

    def test_validates_connectivity(self):
        with pytest.raises(ValueError, match="connected"):
            GraphTopology([(1,), (0,), (3,), (2,)])

    def test_single_node(self):
        assert GraphTopology([()]).n == 1


class TestFamilies:
    def test_ring(self):
        ring = GraphTopology.ring(5)
        assert all(ring.degree(i) == 2 for i in range(5))
        assert len(ring.edges()) == 5

    def test_ring_minimum_size(self):
        with pytest.raises(ValueError):
            GraphTopology.ring(2)

    def test_path(self):
        path = GraphTopology.path(4)
        assert path.degree(0) == path.degree(3) == 1
        assert path.degree(1) == path.degree(2) == 2
        assert len(path.edges()) == 3

    def test_star(self):
        star = GraphTopology.star(5)
        assert star.degree(0) == 4
        assert all(star.degree(i) == 1 for i in range(1, 5))

    def test_complete(self):
        complete = GraphTopology.complete(4)
        assert len(complete.edges()) == 6
        assert all(complete.degree(i) == 3 for i in range(4))

    def test_complete_bipartite(self):
        k23 = GraphTopology.complete_bipartite(2, 3)
        assert k23.n == 5
        assert len(k23.edges()) == 6
        assert k23.degree(0) == 3 and k23.degree(2) == 2

    def test_from_networkx_roundtrip(self):
        import networkx as nx

        original = GraphTopology.ring(6)
        rebuilt = GraphTopology.from_networkx(original.to_networkx())
        assert rebuilt.edges() == original.edges()

    def test_from_networkx_cycle(self):
        import networkx as nx

        topology = GraphTopology.from_networkx(nx.cycle_graph(4))
        assert len(topology.edges()) == 4

    def test_cli_import_leaves_networkx_unloaded(self):
        """networkx is imported by the interop helpers, not at startup."""
        import os
        import pathlib
        import subprocess
        import sys

        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        probe = (
            "import sys, repro.cli; repro.cli.build_parser(); "
            "print('networkx' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, env=env, timeout=60, check=True,
        )
        assert out.stdout.strip() == "False"


class TestPortsAndLabelings:
    def test_port_to_inverts_neighbour(self):
        k23 = GraphTopology.complete_bipartite(2, 3)
        for node in range(k23.n):
            for port in range(1, k23.degree(node) + 1):
                target = k23.neighbour(node, port)
                assert k23.port_to(node, target) == port

    def test_port_bounds(self):
        ring = GraphTopology.ring(3)
        with pytest.raises(ValueError):
            ring.neighbour(0, 3)

    def test_labeling_count(self):
        assert GraphTopology.ring(4).labeling_count() == 16  # (2!)^4
        assert GraphTopology.complete_bipartite(2, 2).labeling_count() == 16

    def test_iter_labelings_exhaustive(self):
        ring = GraphTopology.ring(3)
        labelings = list(ring.iter_labelings())
        assert len(labelings) == 8
        assert len(set(labelings)) == 8
        assert all(lab.edges() == ring.edges() for lab in labelings)

    def test_iter_labelings_guard(self):
        with pytest.raises(ValueError):
            list(GraphTopology.complete(6).iter_labelings(limit=10))

    def test_relabel_validation(self):
        ring = GraphTopology.ring(3)
        with pytest.raises(ValueError):
            ring.relabel([(0, 0), (0, 1), (0, 1)])


class TestGraphKnowledge:
    def test_matches_clique_model_without_back_ports(self):
        """On K_n the graph model must agree with the paper's clique model."""
        n = 4
        ports = round_robin_assignment(n)
        clique = MessagePassingModel(ports)
        graph = GraphMessagePassingModel(
            GraphTopology.complete(n), include_back_ports=False
        )
        import itertools

        for rho in itertools.product(
            list(itertools.product((0, 1), repeat=2)), repeat=n
        ):
            assert clique.partition(rho) == graph.partition(rho)

    def test_degree_splits_immediately(self):
        """Nodes of different degree have different knowledge at t=1."""
        path = GraphTopology.path(3)
        model = GraphMessagePassingModel(path)
        ids = model.knowledge_ids(((0,), (0,), (0,)))
        assert ids[0] == ids[2] != ids[1]

    def test_back_ports_refine_more(self):
        """K_{2,2} with an asymmetric labeling: back ports split nodes the
        plain Eq. (2) semantics cannot."""
        base = GraphTopology.complete_bipartite(2, 2)
        # find a labeling where the two semantics disagree at some time
        rho = ((0, 0), (0, 0), (0, 0), (0, 0))
        disagreement = False
        for labeled in base.iter_labelings():
            plain = GraphMessagePassingModel(
                labeled, include_back_ports=False
            ).partition(rho)
            classical = GraphMessagePassingModel(
                labeled, include_back_ports=True
            ).partition(rho)
            for block in classical:
                assert any(block <= b for b in plain)  # refinement
            if plain != classical:
                disagreement = True
        assert disagreement

    def test_projection_structure_on_graphs(self):
        from repro.core import knowledge_projection
        from repro.topology import is_disjoint_union_of_simplices

        model = GraphMessagePassingModel(GraphTopology.ring(4))
        projected = knowledge_projection(model, ((0,), (1,), (0,), (1,)))
        assert is_disjoint_union_of_simplices(projected)
