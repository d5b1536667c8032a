"""The built package runs on its own, with networkx absent.

setuptools builds the package offline (``build_py``) from a copy of
``pyproject.toml``, ``README.md`` and ``src/`` (setuptools writes
``src/repro.egg-info`` beside the sources, so the checkout stays
clean).  A fresh interpreter then imports only the built package, from
a working directory outside the checkout, with ``networkx`` blocked in
``sys.modules``: the library, the CLI's graph exports and every bundled
corpus must work from the package data alone.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
    import sys
    sys.modules["networkx"] = None  # any import of it now fails
    from pathlib import Path

    import repro
    from repro.cli import main
    from repro.workloads.adl_corpus import (
        adl_corpus, lint_corpus, repair_corpus,
    )

    assert Path(repro.__file__).is_relative_to(sys.argv[1]), repro.__file__
    corpora = (adl_corpus(), lint_corpus(), repair_corpus())
    print("corpora", *(len(c) for c in corpora))
    source = corpora[2]["crossed_greeting"].source
    print("analyze", repro.analyze(source).deadlock.verdict)
    Path("p.adl").write_text(source)
    status = main(["p.adl", "--dot", "s.dot", "--clg-dot", "c.dot", "--stats"])
    print("cli", status, Path("s.dot").read_text().startswith("digraph"),
          Path("c.dot").read_text().startswith("digraph clg"))
"""


def test_built_package_runs_without_networkx(tmp_path):
    source = tmp_path / "source"
    source.mkdir()
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(REPO_ROOT / name, source / name)
    shutil.copytree(
        REPO_ROOT / "src",
        source / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    lib = tmp_path / "lib"
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("PYTHONPATH", "PYTHONHOME")
    }
    build = subprocess.run(
        [sys.executable, "-c", "import setuptools; setuptools.setup()",
         "build_py", "--build-lib", str(lib)],
        cwd=source,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert build.returncode == 0, build.stderr
    for corpus in ("adl", "adl_lint", "adl_repair"):
        packaged = lib / "repro" / "workloads" / corpus
        shipped = REPO_ROOT / "src" / "repro" / "workloads" / corpus
        assert sorted(p.name for p in packaged.glob("*.adl")) == sorted(
            p.name for p in shipped.glob("*.adl")
        ), corpus

    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    run = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(SCRIPT), str(lib)],
        cwd=elsewhere,
        env={**env, "PYTHONPATH": str(lib)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "corpora 10 4 10", lines
    assert lines[1] == "analyze possible-deadlock", lines
    assert lines[-1] == "cli 1 True True", lines
    assert "CLG:" in run.stdout
