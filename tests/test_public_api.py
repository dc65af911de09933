"""Quality gates on the public API surface.

A downstream user navigates by ``__all__`` and docstrings; these tests
keep both honest: every advertised name must exist, every public callable
must be documented, and the package version must be consistent.
"""

import importlib
import inspect

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.topology",
    "repro.randomness",
    "repro.models",
    "repro.core",
    "repro.algorithms",
    "repro.analysis",
    "repro.runner",
    "repro.results",
    "repro.sampling",
    "repro.obs",
    "repro.viz",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__"), f"{module_name} lacks __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name} missing"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_dir_lists_every_exported_name(module_name):
    module = importlib.import_module(module_name)
    assert set(module.__all__) <= set(dir(module))


#: The ``__all__`` lists of the tier packages that re-export lazily:
#: laziness decides when a name's module is imported, never which names
#: a package offers.
PINNED_ALL = {
    "repro.chain": [
        "BACKENDS", "CacheEntry", "ChainDiskCache", "ChainKey", "CompiledChain",
        "DEFAULT_DISTRIBUTION_CACHE_CAP", "DENSE_STATE_LIMIT", "LabelVector",
        "MAX_NODES", "QUANTITIES", "QUOTIENT_MODES", "Query", "QueryPlan",
        "QuotientChain", "StateTable", "automorphism_count",
        "automorphism_generators", "back_port_tables", "block_count",
        "block_sizes", "blocks_from_labels", "canonical_labels", "chain_key",
        "clear_memo", "compile_chain", "configure_quotient", "disk_cache",
        "effective_chain_key", "evolution_strategy", "is_chain_automorphism",
        "is_quotient_key", "labels_from_blocks", "memo_size",
        "neighbour_tables", "quotient_key", "quotient_mode", "refine_labels",
        "resolve_quotient", "run_group_queries", "run_queries",
        "set_distribution_cache_cap", "transition_density", "validate_backend",
    ],
    "repro.core": [
        "ConsistencyChain", "CountTask", "FOLLOWER", "LEADER",
        "OutputComplexTask", "Partition", "PartitionState",
        "ProtocolComplexBuild", "SymmetryBreakingTask",
        "blackboard_k_leader_solvable", "blackboard_leader_and_deputy_solvable",
        "blackboard_solvable", "blackboard_task_solvable",
        "blackboard_teams_solvable", "blackboard_threshold_solvable",
        "blackboard_unique_ids_solvable",
        "blackboard_unique_source_linear_bound",
        "blackboard_unique_source_lower_bound", "build_protocol_complex",
        "canonical_state", "classify_limit",
        "worst_case_deterministic_solvable", "randomized_worst_case_solvable",
        "iter_labeling_verdicts", "deterministic_solvable",
        "color_refinement_fixpoint", "eventually_solvable",
        "expected_solving_time", "expected_time_table",
        "facet_correspondence_is_bijective", "facet_count", "round_operator",
        "iterate_protocol_complex", "initial_protocol_complex",
        "facet_successors", "evolve_facet", "gcd_divides_k",
        "is_monotone_non_decreasing", "is_refinement", "iter_realizations",
        "k_leader_election", "knowledge_projection", "leader_and_deputy",
        "leader_election", "leader_election_complex", "leader_election_facet",
        "message_passing_worst_case_k_leader_solvable",
        "message_passing_worst_case_solvable",
        "message_passing_worst_case_task_solvable", "minimum_reachable_class",
        "model_for", "mp_worst_case_leader_and_deputy_solvable",
        "mp_worst_case_teams_solvable", "mp_worst_case_threshold_solvable",
        "mp_worst_case_unique_ids_solvable", "partition_into_teams",
        "project_complex", "project_facet", "projected_realization_complex",
        "protocol_facet", "reachable_multisets", "realization_complex",
        "realization_facet", "realization_solves", "single_block_state",
        "solves_by_definition_31", "solves_by_definition_34",
        "solves_by_forced_map", "solving_probability_enumerated",
        "solving_probability_exact", "solving_probability_sampled",
        "solving_probability_series", "solving_realizations",
        "solving_time_quantile", "solving_time_distribution", "succeeds",
        "threshold_election", "two_leader_blackboard_solvable",
        "two_leader_message_passing_solvable", "unique_ids", "vertex_count",
        "weak_symmetry_breaking", "worst_case_k_leader_solvable",
        "worst_case_leader_election_solvable",
    ],
    "repro.runner": [
        "ENGINE_NAMES", "KINDS", "MODELS", "PORT_KINDS", "ExecutionEngine",
        "ProcessPoolEngine", "RunDirectory", "RunSpec", "SerialEngine",
        "SweepOutcome", "SweepSpec", "aggregate_records", "derive_seed",
        "execute_experiment", "execute_port_chunk", "execute_run",
        "make_engine", "make_ports", "make_task", "parse_sizes", "run_sweep",
    ],
    "repro.obs": [
        "LIVE", "OBS", "HeartbeatEmitter", "LiveConfig", "Observability",
        "Span", "SweepMonitor", "Tracer", "MetricsRegistry",
        "PROFILE_SCHEMA_VERSION", "bin_edges", "bin_index", "build_profile",
        "configure_tracing", "drain_telemetry", "histogram_percentiles",
        "merge_telemetry", "monitored_map", "now", "render_span_tree",
        "reset_telemetry", "span_aggregates", "telemetry_rows", "trace",
    ],
}


@pytest.mark.parametrize("package", sorted(PINNED_ALL))
def test_lazy_package_exports_are_pinned(package):
    assert importlib.import_module(package).__all__ == PINNED_ALL[package]


def test_star_import_binds_every_exported_name():
    import repro

    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["compile_chain"] is repro.compile_chain


def test_docstring_quickstart_runs():
    import textwrap

    import repro

    code = textwrap.dedent(repro.__doc__.split("Quickstart::", 1)[1])
    namespace: dict = {}
    exec(code, namespace)
    # The quickstart's last line: (2,3) elects no leader (Thm 4.1).
    assert namespace["chain"].eventually_solvable(namespace["task"]) is False


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_lists_are_duplicate_free(module_name):
    module = importlib.import_module(module_name)
    assert len(module.__all__) == len(set(module.__all__))


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_public_callables_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if not inspect.getdoc(obj):
                undocumented.append(name)
    assert not undocumented, f"{module_name}: {undocumented}"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_docstrings(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip()


def test_version_consistency():
    import repro

    assert repro.__version__ == "1.0.0"

    import pathlib
    import tomllib

    pyproject = pathlib.Path(repro.__file__).parents[2] / "pyproject.toml"
    data = tomllib.loads(pyproject.read_text())
    assert data["project"]["version"] == repro.__version__


def test_py_typed_marker_present():
    import pathlib

    import repro

    assert (pathlib.Path(repro.__file__).parent / "py.typed").exists()


def test_public_class_methods_documented():
    """Spot-check the workhorse classes for per-method docs."""
    from repro.core import ConsistencyChain
    from repro.models import GraphTopology, PortAssignment
    from repro.topology import Simplex, SimplicialComplex

    for cls in (ConsistencyChain, SimplicialComplex, Simplex, PortAssignment, GraphTopology):
        for name, member in inspect.getmembers(cls, inspect.isfunction):
            if name.startswith("_"):
                continue
            assert inspect.getdoc(member), f"{cls.__name__}.{name}"
