"""The experiment registry: every generator of the reproduction sweep.

Kept apart from :mod:`repro.analysis` so that reaching one analysis
module (``repro estimate`` needs only :mod:`repro.analysis.montecarlo`)
does not import every experiment.
"""

from . import (
    convergence,
    extensions,
    figures,
    graphs,
    protocols,
    round_complexity,
    symmetry,
    theorems,
    worst_case_search,
)

#: The full reproduction sweep, in paper order.
ALL_EXPERIMENTS = (
    figures.figure1_protocol_complex,
    figures.figure2_realization_complex,
    figures.figure3_output_projection,
    figures.figure4_solvability_equivalence,
    theorems.lemma_b1_equiprobability,
    theorems.theorem41_blackboard,
    theorems.theorem41_convergence,
    theorems.theorem42_message_passing,
    protocols.lemma43_divisibility,
    protocols.algorithm1_matching,
    protocols.euclid_protocol,
    protocols.theoremC1_reduction,
    theorems.extension_k_leader,
    extensions.extension_task_zoo,
    extensions.extension_expected_times,
    graphs.extension_anonymous_graphs,
    graphs.ring_labeling_census,
    round_complexity.protocol_round_complexity,
    worst_case_search.worst_case_port_search,
    symmetry.symmetry_census,
    convergence.convergence_rates,
)

__all__ = ["ALL_EXPERIMENTS"]
