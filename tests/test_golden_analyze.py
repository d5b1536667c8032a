"""Golden ``repro-analyze --json`` payloads.

The front half (lexer, parser, sync-graph builder) decides every span,
label and successor order a report carries, so these goldens pin the
CLI's bytes for the paper, ``adl``, ``adl_lint`` and ``adl_repair``
corpora under three detectors, each file as written and with two
comment lines prepended (every span moves down by two lines; nothing
else may change).  ``exit_status.json`` pins each run's exit code and
stderr alongside the stdout bytes.  Regenerate with
``REPRO_REGEN_GOLDEN=1`` only for an intended payload change.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.cli import main
from repro.lang.pretty import pretty
from repro.workloads.corpus import paper_corpus

GOLDEN_DIR = Path(__file__).parent / "golden_analyze"
EXIT_STATUS = GOLDEN_DIR / "exit_status.json"
REGEN = bool(os.environ.get("REPRO_REGEN_GOLDEN"))
REPO_ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = REPO_ROOT / "src" / "repro" / "workloads"
ALGORITHMS = ("refined", "naive", "head-tail")
COMMENT = "-- two comment lines prepended:\n-- every span moves down by two\n"


def _sources():
    sources = {
        f"paper_{name}": pretty(entry.program)
        for name, entry in paper_corpus().items()
    }
    for corpus in ("adl", "adl_lint", "adl_repair"):
        for path in sorted((WORKLOADS / corpus).glob("*.adl")):
            sources[f"{corpus}_{path.stem}"] = path.read_text()
    return sources


SOURCES = _sources()


@pytest.mark.parametrize(
    "commented", [False, True], ids=["plain", "commented"]
)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("stem", sorted(SOURCES))
def test_cli_json_matches_golden(stem, algorithm, commented, tmp_path, capsys):
    text = SOURCES[stem]
    variant = ""
    if commented:
        text = COMMENT + text
        variant = ".commented"
    path = tmp_path / f"{stem}.adl"
    path.write_text(text)
    status = main([str(path), "--json", "--algorithm", algorithm])
    captured = capsys.readouterr()
    name = f"{stem}.{algorithm}{variant}"
    golden = GOLDEN_DIR / f"{name}.json"
    exit_status = json.loads(EXIT_STATUS.read_text())
    if REGEN:
        golden.write_text(captured.out)
        exit_status[name] = {"exit": status, "stderr": captured.err}
        EXIT_STATUS.write_text(
            json.dumps(exit_status, indent=2, sort_keys=True) + "\n"
        )
        pytest.skip(f"regenerated {golden.name}")
    assert captured.out == golden.read_text(), golden.name
    assert {"exit": status, "stderr": captured.err} == exit_status[name]
