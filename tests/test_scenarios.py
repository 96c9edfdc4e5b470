"""Every registered scenario through the one CLI driver.

The golden files under ``tests/golden/`` hold the text and ``--json``
reports of the pinned runs, each captured by the command in
:data:`GOLDENS`.  A golden is written by one process and compared in
another, so a match proves both same-seed determinism across processes
and identity across commits.  Rewrite a golden only for a deliberate
report change, with the same command.
"""

import typing
from pathlib import Path

import pytest

from repro.__main__ import SCENARIOS, main
from repro.simulation.kernel import Invariant

GOLDEN_DIR = Path(__file__).parent / "golden"

#: golden stem -> (scenario, its arguments)
GOLDENS = {
    "chaos-monkey-11": ("chaos", ["--plan", "monkey", "--seed", "11"]),
    "recover-torn-storage-11": (
        "recover", ["--plan", "torn-storage", "--seed", "11"],
    ),
    "recover-crashy-storage-11": (
        "recover", ["--plan", "crashy-storage", "--seed", "11"],
    ),
    "overload-rush-hour-11": ("overload", ["--plan", "rush-hour", "--seed", "11"]),
    "overload-no-admission-11": ("overload", ["--no-admission", "--seed", "11"]),
    "federate-campus-storm-17": (
        "federate", ["--plan", "campus-storm", "--seed", "17"],
    ),
    "rebalance-ring-change-23": (
        "rebalance", ["--plan", "ring-change", "--seed", "23"],
    ),
}

#: The pre-registry subcommand each scenario keeps as an alias.
ALIASES = {
    "chaos": ["chaos"],
    "recover": ["chaos", "--recover"],
    "overload": ["overload"],
    "federate": ["federate"],
    "rebalance": ["rebalance"],
}

#: One invariant per ``violations.append`` site of the hand-rolled
#: scenarios the kernel replaced.
INVARIANT_COUNTS = {
    "chaos": 0, "recover": 3, "overload": 8, "federate": 14, "rebalance": 22,
}


def _report_class(name):
    return typing.get_type_hints(SCENARIOS[name].run)["return"]


@pytest.mark.parametrize("via", ["scenario", "alias"])
@pytest.mark.parametrize("stem", sorted(GOLDENS))
def test_golden_report(stem, via, tmp_path, capsys):
    name, arguments = GOLDENS[stem]
    command = ["scenario", name] if via == "scenario" else ALIASES[name]
    text_path = tmp_path / "report.txt"
    assert main(
        command + arguments + ["--json", "--report-out", str(text_path)]
    ) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / (stem + ".json")).read_text()
    assert text_path.read_text() == (GOLDEN_DIR / (stem + ".txt")).read_text()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_violation_exits_1_and_report_out_matches_stdout(
    name, tmp_path, capsys, monkeypatch
):
    report_class = _report_class(name)
    forced = Invariant("forced", lambda report: False, lambda report: "forced")
    monkeypatch.setattr(
        report_class, "INVARIANTS", report_class.INVARIANTS + (forced,)
    )
    path = tmp_path / "report.txt"
    assert main(["scenario", name, "--report-out", str(path)]) == 1
    out = capsys.readouterr().out
    assert "VIOLATION: forced\n" in out
    assert out.endswith("result: FAILED\n")
    assert path.read_text() == out


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_unknown_plan_exits_2(name, capsys):
    assert main(["scenario", name, "--plan", "no-such-plan"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_invariants_are_named_uniquely_and_complete(name):
    names = [invariant.name for invariant in _report_class(name).INVARIANTS]
    assert len(set(names)) == len(names)
    assert len(names) == INVARIANT_COUNTS[name]
