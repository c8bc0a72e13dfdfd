"""Per-commit benchmark history: ``benchmarks/history/<commit>/<suite>.json``.

The archive is a plain directory tree so results diff cleanly in
review, plus an ``index.json`` recording commit *order* -- directory
listings sort lexically by hash, which is useless for a trend line.
``save_result`` appends the commit to the index on first sight;
``list_commits`` returns index order and sweeps in any unindexed
directories (hand-copied entries) at the end so nothing archived is
ever invisible.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.bench.schema import SchemaError, SuiteResult

#: Repo-relative default; the CLI resolves it against the cwd.
DEFAULT_HISTORY = Path("benchmarks") / "history"

INDEX_NAME = "index.json"


def _index_path(history_dir: Path) -> Path:
    return Path(history_dir) / INDEX_NAME


def _read_index(history_dir: Path) -> List[str]:
    path = _index_path(history_dir)
    if not path.exists():
        return []
    with path.open() as fh:
        payload = json.load(fh)
    commits = payload.get("commits", [])
    if not isinstance(commits, list):
        raise SchemaError("%s: 'commits' must be a list" % path)
    return [str(c) for c in commits]


def _write_index(history_dir: Path, commits: List[str]) -> None:
    path = _index_path(history_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump({"commits": commits}, fh, indent=2)
        fh.write("\n")


def list_commits(history_dir) -> List[str]:
    """Archived commits, oldest first (index order + unindexed extras)."""
    history_dir = Path(history_dir)
    commits = _read_index(history_dir)
    if history_dir.is_dir():
        indexed = set(commits)
        extras = sorted(
            entry.name
            for entry in history_dir.iterdir()
            if entry.is_dir() and entry.name not in indexed
        )
        commits.extend(extras)
    return commits


def save_result(
    result: SuiteResult, history_dir, commit: Optional[str] = None
) -> Path:
    """Archive one suite result under its commit; returns the path."""
    history_dir = Path(history_dir)
    commit = commit or result.env.commit
    if not commit or commit == "unknown":
        raise SchemaError(
            "cannot archive without a commit label (env.commit is %r); "
            "run inside a git checkout" % (result.env.commit,)
        )
    result.validate()
    path = history_dir / commit / ("%s.json" % result.suite)
    result.save(path)
    commits = _read_index(history_dir)
    if commit not in commits:
        commits.append(commit)
        _write_index(history_dir, commits)
    return path


def load_entry(history_dir, commit: str) -> Dict[str, SuiteResult]:
    """All suites archived for one commit, ``{suite: result}``."""
    entry_dir = Path(history_dir) / commit
    if not entry_dir.is_dir():
        raise FileNotFoundError(
            "no archived entry for commit %r under %s" % (commit, history_dir)
        )
    out: Dict[str, SuiteResult] = {}
    for path in sorted(entry_dir.glob("*.json")):
        result = SuiteResult.load(path)
        out[result.suite] = result
    return out


def load_history(history_dir) -> List[Dict[str, object]]:
    """The whole archive, oldest first:
    ``[{"commit": c, "suites": {suite: SuiteResult}}, ...]``."""
    out = []
    for commit in list_commits(history_dir):
        try:
            suites = load_entry(history_dir, commit)
        except FileNotFoundError:
            continue  # indexed but deleted on disk; skip, don't crash
        out.append({"commit": commit, "suites": suites})
    return out


def latest_result(history_dir, suite: str) -> Optional[SuiteResult]:
    """The newest archived result for ``suite``, or ``None``."""
    for commit in reversed(list_commits(history_dir)):
        path = Path(history_dir) / commit / ("%s.json" % suite)
        if path.exists():
            return SuiteResult.load(path)
    return None
