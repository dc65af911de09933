"""The reproduction itself: ``figures``, ``experiments`` and ``report``."""

from __future__ import annotations

import sys

from ..cli import _engine_from


def cmd_figures(args) -> int:
    from ..core import (
        build_protocol_complex,
        leader_election_complex,
        project_complex,
        realization_complex,
    )
    from ..models import BlackboardModel
    from ..viz import render_complex

    print("Figure 1 -- P(t), n=2, blackboard")
    for t in range(2):
        build = build_protocol_complex(BlackboardModel(2), t)
        print(render_complex(build.complex, title=f"P({t}):"))
    print("\nFigure 2 -- R(1), n=3")
    print(render_complex(realization_complex(3, 1)))
    print("\nFigure 3 -- O_LE and pi(O_LE), n=3")
    o_le = leader_election_complex(3)
    print(render_complex(o_le, title="O_LE:"))
    print(render_complex(project_complex(o_le), title="pi(O_LE):"))
    return 0


def cmd_report(args) -> int:
    """Run all experiments and write JSON/CSV/Markdown reports."""
    from ..analysis import ALL_EXPERIMENTS, iter_all_experiments, write_report

    total = len(ALL_EXPERIMENTS)
    results = []
    for result in iter_all_experiments(engine=_engine_from(args)):
        results.append(result)
        if args.progress:
            verdict = "pass" if result.passed else "FAIL"
            print(
                f"progress: {len(results)}/{total} {result.experiment_id} "
                f"({verdict})",
                file=sys.stderr,
            )
    paths = write_report(results, args.output)
    if getattr(args, "warehouse", None) and not args.no_warehouse:
        # Land the pass/fail history in the warehouse so `repro results
        # query --table experiments` serves it across report runs.
        from ..obs import clock
        from ..results import ResultsStore
        from ..results.store import EXPERIMENT_COLUMNS

        store = ResultsStore(args.warehouse)
        store.append_rows(
            "experiments",
            [
                {
                    "experiment_id": result.experiment_id,
                    "title": result.title,
                    "passed": result.passed,
                    "rows": len(result.rows),
                    # When this row was appended (epoch seconds) -- an
                    # audit field, never an input to any computation;
                    # read through repro.obs.clock so tests can freeze
                    # it.
                    "stamp": clock.now(),
                }
                for result in results
            ],
            EXPERIMENT_COLUMNS,
        )
        print(f"ingested {len(results)} experiment outcomes into "
              f"{args.warehouse}")
    failed = [r.experiment_id for r in results if not r.passed]
    print(f"wrote {paths['json']}")
    print(f"wrote {paths['markdown']}")
    print(
        f"{len(results) - len(failed)}/{len(results)} experiments pass"
    )
    if failed:
        print("FAILED:", ", ".join(failed))
        return 1
    return 0


def cmd_experiments(args) -> int:
    from ..analysis import iter_all_experiments

    wanted = set(args.ids)
    failed = []
    for result in iter_all_experiments(engine=_engine_from(args)):
        if wanted and result.experiment_id not in wanted:
            continue
        print(result.render())
        print()
        if not result.passed:
            failed.append(result.experiment_id)
    if failed:
        print("FAILED:", ", ".join(failed))
        return 1
    return 0

