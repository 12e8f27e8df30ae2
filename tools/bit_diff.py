"""Output-by-output comparison of two commits: identical, or the largest drift.

    python3 tools/bit_diff.py PARENT CHANGE

Both commits are exported with ``git archive`` into fresh directories
under ``$TMPDIR``.  ``tools/bit_manifest.py`` of this checkout then runs
once per side, each in a fresh Python process with that side's ``src``
first on ``sys.path`` and its export as the working directory, and hands
back every output it names.  For each output the tool prints one line:
``identical`` when the two sides have the same bytes; for doubles that
differ, the largest absolute distance and that distance in ulps of the
parent output's largest finite |value| (so values near zero do not read
as millions of ulps, and a -0 that became +0 reads as 0 ulps without
being identical); ``differs`` for text, a shape or a dtype that differs;
and ``only in``
for an output one side lacks.  One line per family of outputs (the name
up to its second "/") then gives its count, how many are identical and
its largest drift, and the last line counts the identical outputs.
Nothing leaves the machine.
"""

from __future__ import annotations

import argparse
import io
import os
import pickle
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().parent / "bit_manifest.py"
# runs in the fresh process: the manifest's outputs, by name, pickled to the file named by argv[2]
_RUNNER = """
import pickle, runpy, sys
outputs = {}
for name, value in runpy.run_path(sys.argv[1])["outputs"]():
    if name in outputs:
        raise SystemExit(f"output {name!r} named twice")
    outputs[name] = value
with open(sys.argv[2], "wb") as handle:
    pickle.dump(outputs, handle)
"""


def _export(repo: Path, rev: str, dest: Path) -> str:
    """Committed files of ``rev`` in ``repo`` under ``dest``; returns the full hash."""
    git = lambda *args: subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True).stdout
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as archive:
        archive.extractall(dest, filter="data")
    return commit


def _outputs(tree: Path, manifest: Path, scratch: Path) -> dict:
    """Every output of ``manifest`` run on ``tree``'s sources in a fresh process."""
    pickled = scratch / f"{tree.name}.pickle"
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    command = [sys.executable, "-c", _RUNNER, str(manifest), str(pickled)]
    proc = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode:  # what a run prints, the CLI's failure messages included, is shown only then
        raise RuntimeError(f"the manifest failed on the {tree.name}:\n{proc.stderr}")
    with pickled.open("rb") as handle:
        return pickle.load(handle)


def distance(parent, change):
    """None when the bytes agree; for doubles that differ, (largest |change - parent|, it in ulp(max|parent|)); else why."""
    if isinstance(parent, str) or isinstance(change, str):
        return None if parent == change else "differs"
    parent, change = np.asarray(parent), np.asarray(change)
    if parent.dtype != change.dtype or parent.shape != change.shape:
        return f"differs: {parent.dtype}{list(parent.shape)} -> {change.dtype}{list(change.shape)}"
    if parent.tobytes() == change.tobytes():
        return None
    if parent.dtype != np.float64:
        return "differs"
    with np.errstate(all="ignore"):
        gap = np.where(parent == change, 0.0, np.abs(change - parent))
    gap[np.isnan(gap)] = np.inf  # one side NaN, or both but with other bits
    largest = float(np.max(gap))
    scale = float(np.max(np.abs(parent[np.isfinite(parent)]), initial=0.0))
    return largest, largest / float(np.spacing(scale))


def _verdict(d) -> str:
    if d is None:
        return "identical"
    return d if isinstance(d, str) else f"largest |change - parent| {d[0]:.3g} = {d[1]:.3g} ulp(max|parent|)"


def diff(repo: Path, parent: str, change: str, manifest: Path = MANIFEST) -> list[str]:
    """The report lines for ``parent`` against ``change`` of ``repo``.

    One line per output, then one per family (the name up to its second
    "/"): its count of outputs, how many are identical, and its largest
    drift; then the total count.
    """
    scratch = Path(tempfile.mkdtemp(prefix="bit_diff-"))
    try:
        trees = {side: scratch / side for side in ("parent", "change")}
        commits = {side: _export(repo, rev, trees[side]) for side, rev in (("parent", parent), ("change", change))}
        results = {side: _outputs(tree, manifest, scratch) for side, tree in trees.items()}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    before, after = results["parent"], results["change"]
    lines = [f"parent {commits['parent']}", f"change {commits['change']}"]
    families: dict[str, list] = {}  # family -> [outputs, identical, largest |drift|, in ulps, other]
    names = sorted(before.keys() | after.keys())
    for name in names:
        if name not in after or name not in before:
            d = f"only in {'parent' if name in before else 'change'}"
        else:
            d = distance(before[name], after[name])
        lines.append(f"{name}: {_verdict(d)}")
        family = families.setdefault("/".join(name.split("/")[:2]), [0, 0, 0.0, 0.0, 0])
        family[0] += 1
        if d is None:
            family[1] += 1
        elif isinstance(d, str):
            family[4] += 1
        else:
            family[2], family[3] = max(family[2], d[0]), max(family[3], d[1])
    for name, (count, same, gap, ulps, other) in families.items():
        drift = f", largest |change - parent| {gap:.3g}, largest {ulps:.3g} ulp(max|parent|)" if same + other < count else ""
        lines.append(f"family {name}: {same} of {count} identical{drift}, {other} differ otherwise")
    identical = sum(family[1] for family in families.values())
    lines.append(f"{identical} of {len(names)} outputs identical")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="parent revision")
    parser.add_argument("change", help="changed revision")
    args = parser.parse_args(argv)
    print("\n".join(diff(ROOT, args.parent, args.change)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
