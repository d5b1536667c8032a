"""Golden graph exports: ``--dot``, ``--clg-dot``, ``--stats`` and
``--stats --json``.

The sync-graph DOT lists nodes and edges in builder order, the CLG DOT
lists every CLG node and every kinded edge in rule order, and
``--stats`` prints the CLG's node and edge counts, so these goldens pin
the CLG export byte for byte over the same programs as
``tests/golden_analyze/``: the paper, ``adl``, ``adl_lint`` and
``adl_repair`` corpora.  Each golden holds both runs' exit codes,
stdout and stderr, and the two DOT files (None when the run wrote
none).  Regenerate with ``REPRO_REGEN_GOLDEN=1`` only for an intended
output change.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.cli import main
from tests.test_golden_analyze import SOURCES

GOLDEN_DIR = Path(__file__).parent / "golden_export"
REGEN = bool(os.environ.get("REPRO_REGEN_GOLDEN"))


def _run(argv, capsys):
    status = main(argv)
    captured = capsys.readouterr()
    return {"exit": status, "stdout": captured.out, "stderr": captured.err}


def _read(path: Path):
    return path.read_text() if path.exists() else None


@pytest.mark.parametrize("stem", sorted(SOURCES))
def test_exports_match_golden(stem, tmp_path, capsys):
    path = tmp_path / f"{stem}.adl"
    path.write_text(SOURCES[stem])
    sync_dot = tmp_path / "sync.dot"
    clg_dot = tmp_path / "clg.dot"
    record = {
        "stats": _run(
            [str(path), "--dot", str(sync_dot), "--clg-dot", str(clg_dot),
             "--stats"],
            capsys,
        ),
        "stats_json": _run([str(path), "--stats", "--json"], capsys),
        "dot": _read(sync_dot),
        "clg_dot": _read(clg_dot),
    }
    golden = GOLDEN_DIR / f"{stem}.json"
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {golden.name}")
    assert record == json.loads(golden.read_text()), golden.name
