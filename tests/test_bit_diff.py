"""``tools/bit_diff.py`` on a tiny repository whose second commit moves one output by one ulp."""

import importlib.util
import subprocess
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bit_diff.py"
_SPEC = importlib.util.spec_from_file_location("bit_diff", _PATH)
bit_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bit_diff)

MANIFEST = '''
import numpy as np
import tiny

def outputs():
    yield "kept/array", np.array(tiny.VALUES)
    yield "kept/text", tiny.TEXT
    yield "kept/sum", float(np.sum(tiny.VALUES))
    yield "moved/scale", tiny.SCALE
'''


def commit(repo, source, message):
    (repo / "src" / "tiny.py").write_text(source)
    git = ["git", "-c", "user.name=bit_diff", "-c", "user.email=bit_diff@localhost"]
    subprocess.run(git + ["add", "-A"], cwd=repo, check=True, capture_output=True)
    subprocess.run(git + ["commit", "-q", "-m", message], cwd=repo, check=True, capture_output=True)


def test_a_one_ulp_change_is_reported_there_and_only_there(tmp_path):
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    body = 'VALUES = [1.0, -0.0, 3e-310]\nTEXT = "kept"\nSCALE = {!r}\n'
    commit(repo, body.format(0.1), "parent")
    commit(repo, body.format(float(np.nextafter(0.1, 1.0))), "change")
    manifest = tmp_path / "manifest.py"
    manifest.write_text(MANIFEST)
    lines = bit_diff.diff(repo, "HEAD~1", "HEAD", manifest)
    assert lines[0].startswith("parent ") and lines[1].startswith("change ")
    assert lines[2:] == [
        "kept/array: identical",
        "kept/sum: identical",
        "kept/text: identical",
        "moved/scale: largest |change - parent| 1.39e-17 = 1 ulp(max|parent|)",
        "family kept/array: 1 of 1 identical, 0 differ otherwise",
        "family kept/sum: 1 of 1 identical, 0 differ otherwise",
        "family kept/text: 1 of 1 identical, 0 differ otherwise",
        "family moved/scale: 0 of 1 identical, largest |change - parent| 1.39e-17, largest 1 ulp(max|parent|), "
        "0 differ otherwise",
        "3 of 4 outputs identical",
    ]


def test_distances():
    assert bit_diff.distance(np.array([1.0, -0.0]), np.array([1.0, -0.0])) is None
    assert bit_diff.distance(np.array([-0.0]), np.array([0.0])) == (0.0, 0.0)  # other bytes, no distance
    assert bit_diff.distance(np.array([-5e-324]), np.array([5e-324])) == (1e-323, 2.0)
    # in ulps of the largest |value|: a drift near zero reads small beside the output's scale
    assert bit_diff.distance(np.array([1e-20, 1024.0]), np.array([2e-20, 1024.0])) == (1e-20, 1e-20 / 2.0**-42)
    assert bit_diff.distance(np.array([1.0, np.nan]), np.array([1.0, 2.0]))[0] == np.inf
    assert bit_diff.distance(np.array([1.0]), np.array([1.0, 2.0])) == "differs: float64[1] -> float64[2]"
    assert bit_diff.distance("a", "b") == "differs" and bit_diff.distance("a", "a") is None
    assert bit_diff.distance(np.array([1]), np.array([2])) == "differs"


def test_a_number_written_in_another_format_changes_its_digits_only():
    path = _PATH.parent / "bit_manifest.py"
    spec = importlib.util.spec_from_file_location("bit_manifest", path)
    manifest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(manifest)
    parent = dict(manifest._file_parts("f", "y,z\n1,-0.5\nnan,2e-3\n"))
    change = dict(manifest._file_parts("f", "y,z\n1.0,-0.5\nnan,2e-3\n"))
    assert sorted(parent) == ["f/digits", "f/numbers", "f/text"]
    assert bit_diff.distance(parent["f/numbers"], change["f/numbers"]) is None
    assert bit_diff.distance(parent["f/text"], change["f/text"]) is None
    assert bit_diff.distance(parent["f/digits"], change["f/digits"]) == "differs"
