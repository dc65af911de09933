"""Start-up pays only for what the chosen command runs.

``repro`` and its tier packages re-export lazily (PEP 562), the CLI's
module level imports only the stdlib and :mod:`repro.context`, and
``main`` imports just the module that holds the chosen command.  Each
probe runs in a fresh interpreter and lists which of the named modules
it loaded; a module-level import that pulls a tier back in fails here.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Tiers a bare ``import repro.cli`` + ``build_parser()`` must not load.
TIERS = (
    "numpy",
    "networkx",
    "repro.chain",
    "repro.core",
    "repro.runner",
    "repro.results",
    "repro.obs",
    "repro.analysis",
)

HELP = (
    "import runpy\n"
    "sys.argv = ['repro', '--help']\n"
    "try:\n"
    "    runpy.run_module('repro', run_name='__main__')\n"
    "except SystemExit as exc:\n"
    "    assert exc.code == 0, exc.code\n"
)

#: Probe name -> (code run in a fresh interpreter, modules it must not load).
PROBES = {
    "import-repro": ("import repro", ("numpy",)),
    "build-parser": ("import repro.cli; repro.cli.build_parser()", TIERS),
    "help": (HELP, ("numpy",)),
    "solve": (
        "import repro.cli\n"
        "assert repro.cli.main(['solve', '2,3', '--model', 'clique']) == 0",
        (
            "repro.results",
            "repro.runner.engines",
            "repro.obs.live",
            "repro.sampling",
            "multiprocessing",
            "concurrent.futures",
        ),
    ),
}


def _run(argv: list, trace: bool = False) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("REPRO_TRACE", None)
    if trace:
        env["REPRO_TRACE"] = "1"
    out = subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    return out.stdout


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_startup_leaves_unused_tiers_unloaded(probe):
    code, absent = PROBES[probe]
    report = (
        "\nimport json\n"
        f"print(json.dumps([m for m in {list(absent)!r} if m in sys.modules]))"
    )
    stdout = _run(["-c", "import sys\n" + code + report])
    assert json.loads(stdout.splitlines()[-1]) == []


def _profile_of_traced_solve(tmp_path) -> dict:
    """``REPRO_TRACE=1`` ``solve 1,2`` in a fresh interpreter, and the
    document ``--profile-out`` writes for it (``build_profile``)."""
    out = tmp_path / "profile.json"
    code = (
        "import json, repro.cli\n"
        "assert repro.cli.main(['solve', '1,2']) == 0\n"
        "from repro.obs import build_profile\n"
        f"with open({str(out)!r}, 'w') as handle:\n"
        "    json.dump(build_profile(command='solve'), handle)\n"
    )
    _run(["-c", code], trace=True)
    return json.loads(out.read_text())


def _startup_before_root(spans: list, root: str) -> None:
    by_name = {span["name"]: span for span in spans}
    startup, command = by_name["startup"], by_name[root]
    assert startup["duration"] > 0
    assert startup["started"] + startup["duration"] <= command["started"]


def test_traced_solve_records_startup_before_the_command(tmp_path):
    profile = _profile_of_traced_solve(tmp_path)
    _startup_before_root(profile["spans"], "repro.solve")
    # Telemetry survives the lazy imports: the chain tier's counters
    # are live although repro.obs loaded after REPRO_TRACE was read.
    assert profile["metrics"]["counters"]["chain.compile.miss"] >= 1


def test_profile_out_records_startup_before_the_command(tmp_path):
    out = tmp_path / "profile.json"
    _run(["-m", "repro", "phase-diagram", "3", "--profile-out", str(out)])
    profile = json.loads(out.read_text())
    _startup_before_root(profile["spans"], "repro.phase-diagram")
    assert profile["metrics"]["counters"]["chain.compile.miss"] >= 1
