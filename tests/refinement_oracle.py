"""An independent limit oracle for leader election: colour refinement.

The consistency chain decides ``lim_t Pr[S(t) | alpha]`` by absorption
over its compiled states.  This oracle decides the same limit for
leader election without a chain.  In the limit every pair of distinct
sources has disagreed on some bit, so what the network can still not
tell apart is the coarsest partition that refines the source partition
and is equitable under the round's refinement rule.  That is the
fixpoint of :func:`~repro.chain.refine_labels` started from the source
partition with every node's bit equal.  Leader election is solved in
the limit exactly when that fixpoint has a singleton class.

With back ports each neighbour's colour is paired with the port it was
sent on (the classical anonymous-network semantics); without them only
the receiver's port order matters (the paper's Eq. 2).

This is the fibration characterization the symmetry analysis relies
on.  Tests import it from here (the ``tests`` directory is on the
import path through its ``conftest.py``); it is not a package feature.
"""

from fractions import Fraction

from repro.chain import back_port_tables, neighbour_tables, refine_labels


def leader_election_limit(alpha, ports=None, *, include_back_ports=False):
    """``Fraction(1)`` when the refinement fixpoint from the source
    partition has a singleton class, else ``Fraction(0)``."""
    neigh = None if ports is None else neighbour_tables(ports)
    back = (
        back_port_tables(ports)
        if ports is not None and include_back_ports
        else None
    )
    bits = (0,) * alpha.n
    labels = refine_labels(tuple(alpha.assignment), bits, None, None)
    while True:
        nxt = refine_labels(labels, bits, neigh, back)
        if nxt == labels:
            break
        labels = nxt
    return Fraction(int(any(labels.count(c) == 1 for c in set(labels))))
