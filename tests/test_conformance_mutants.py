"""Hand mutations of the decision paths, kept as data.

Each mutant is one edit to a copy of ``src/``: the exact text it
replaces (which must occur exactly once, so a drifted source fails
here rather than silently testing nothing), its replacement, and the
smallest seeded conformance sweep that catches it.  For each, the
sweep must exit 1, and the regression it prints first must fail on
the mutant and pass on the real code: a disagreement is only worth
something when it runs as a failing test.

Slow (a sweep and two pytest runs per mutant, each in a subprocess),
so the default run deselects it::

    python -m pytest -m slow tests/test_conformance_mutants.py
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple, Tuple

import pytest

pytestmark = pytest.mark.slow

SRC = Path(__file__).resolve().parent.parent / "src"


class Mutant(NamedTuple):
    #: The file it edits, relative to ``src/``.
    path: str
    #: The exact text it replaces.
    old: str
    #: The replacement.
    new: str
    #: The smallest seeded sweep (CLI arguments after ``--seed 0``) that
    #: catches it.
    sweep: Tuple[str, ...]


_GREEN = "            self._green and any(p.green_list[r] for p, r in rows),\n"

MUTANTS = {
    "supervisor-replay-skips-close": Mutant(
        "repro/stream/supervisor.py",
        "            for op, payload in journal.records:\n                try:\n",
        "            for op, payload in journal.records:\n"
        "                if op == CLOSE:\n                    continue\n                try:\n",
        ("--pairs", "recovery", "--cases", "2"),
    ),
    "router-replay-skips-close": Mutant(
        "repro/shard/router.py",
        "        for op, payload in dead.journal.records:\n            if op == EVENTS:\n",
        "        for op, payload in dead.journal.records:\n"
        "            if op == CLOSE:\n                continue\n            if op == EVENTS:\n",
        ("--pairs", "recovery", "--cases", "2"),
    ),
    "step-many-without-regather": Mutant(
        "repro/stream/compiled.py",
        "            out[miss] = self.table[rows, syms, gs]\n",
        "",
        ("--pairs", "mux", "--cases", "1"),
    ),
    "row-accepting-from-one-member": Mutant(
        "repro/stream/compiled.py",
        "any(s in self.tba.accepting for s, _v in members)",
        "any(s in self.tba.accepting for s, _v in sorted(members, key=repr)[:1])",
        ("--pairs", "strategy", "--gen", "tba", "--cases", "18"),
    ),
    "boundary-rows-kept-across-words": Mutant(
        "repro/machine/from_tba.py",
        "                boundaries: Set[int] = set()\n",
        "                boundaries = boundaries if reports else set()\n",
        ("--pairs", "strategy", "--cases", "27"),
    ),
    "zeno-settlement-counts-rows-before-the-cycle": Mutant(
        "repro/stream/compiled.py",
        "        return any(trail[seen[row * k + pos]:])\n",
        "        return any(trail)\n",
        ("--pairs", "strategy", "--cases", "333"),
    ),
    "batch-slice-one-word-short": Mutant(
        "repro/words/batch.py",
        "            lo, hi, step = i.indices(len(self))\n",
        "            lo, hi, step = i.indices(len(self) - 1)\n",
        ("--pairs", "shards", "--cases", "1"),
    ),
    "strategy-fallback-loses-its-mark": Mutant(
        "repro/engine/resilience.py",
        '            report.evidence["degraded"] = f"strategy-fallback:{cheap.name}"\n',
        "",
        ("--pairs", "ladder", "--cases", "11"),
    ),
    "headline-green-from-every-component": Mutant(
        "repro/stream/compiled.py",
        _GREEN,
        _GREEN.replace("any(", "all("),
        ("--gen", "query", "--pairs", "query-plan,query-mux", "--cases", "4"),
    ),
    "headline-never-green-locks": Mutant(
        "repro/stream/compiled.py",
        _GREEN,
        "            False,\n",
        ("--gen", "query", "--pairs", "query-plan,query-mux", "--cases", "4"),
    ),
}


def _python(args, src: Path, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("REPRO_STREAM_COMPILED", None)  # the sweeps judge the compiled path
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=900
    )


def _first_printed_test(out: str) -> str:
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("def test_"))
    end = start + 1
    while end < len(lines) and lines[end].startswith("    "):
        end += 1
    return "\n".join(lines[start:end]) + "\n"


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_is_caught_and_its_regression_fails_only_on_it(name, tmp_path):
    mutant = MUTANTS[name]
    mutated = tmp_path / "src"
    shutil.copytree(SRC, mutated, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = mutated / mutant.path
    text = path.read_text()
    assert text.count(mutant.old) == 1, f"{mutant.path} drifted from the mutant"
    path.write_text(text.replace(mutant.old, mutant.new))

    sweep = _python(["-m", "repro.spec.conformance", "--seed", "0", *mutant.sweep], mutated, tmp_path)
    assert sweep.returncode == 1, sweep.stdout + sweep.stderr
    regression = tmp_path / "test_regression.py"
    regression.write_text(_first_printed_test(sweep.stdout))

    pytest_args = ["-m", "pytest", "-q", "-p", "no:cacheprovider", str(regression)]
    on_mutant = _python(pytest_args, mutated, tmp_path)
    assert on_mutant.returncode == 1, regression.read_text() + on_mutant.stdout
    on_real = _python(pytest_args, SRC, tmp_path)
    assert on_real.returncode == 0, regression.read_text() + on_real.stdout
