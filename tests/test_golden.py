"""CLI reports compared byte for byte with the goldens in tests/golden/.

A change that is meant to alter report bytes regenerates the goldens with

    PYTHONPATH=src python3 tests/test_golden.py

which prints, for each golden, whether its bytes changed and each JSON
path that differs (old -> new), and explains the difference in CHANGES.md.
A change that must not alter them checks with

    PYTHONPATH=src python3 tests/test_golden.py --check

which prints the same, writes nothing and exits 1 if any golden differs.
"""

import json
import tempfile
from pathlib import Path

import pytest

from holopar.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = ("section5", "euclidean_flat", "scaled_euclidean_incompatible",
            "rotated_blend")
RATE = 0.3                            # rotation rate of the second member frame
SYNTH_CONFIG = {
    "region": [[-2, 2], [-2, 2]],
    "members": [
        {"domain": [[-3, 0.5], [-3, 3]], "frame": "translation"},
        {"domain": [[-0.5, 3], [-3, 3]],
         "frame": [[f"cos({RATE}*x)", f"sin({RATE}*x)"],
                   [f"-sin({RATE}*x)", f"cos({RATE}*x)"]]},
    ],
    "grid": 5,
}
# README's inline manifold (the section 5 frame and norm), and a frame
# whose determinant is not +-1 under a non-even Randers norm
README_CONFIG = {
    "domain": [[-5, 5], [-5, 5]],
    "frame": [["x", "1"], ["-1", "0"]],
    "norm": {"type": "randers", "Q": [[4, 0], [0, 12]], "beta": [-1, 0]},
}
SHEARED_CONFIG = {
    "domain": [[-2, 2], [-2, 2]],
    "frame": [["2+x", "0.7"], ["0.3*y", "1.5+sin(x)"]],
    "norm": {"type": "randers", "Q": [[1, 0.2], [0.2, 2]], "beta": [0.3, 0.1]},
}
CASES = {f"verify_{fx}": ["verify", fx, "--seed", "7", "--curves", "12", "--step", "2e-3"]
         for fx in FIXTURES}
CASES["synthesize_two_members"] = ["synthesize", "--config", json.dumps(SYNTH_CONFIG)]
for op in ("compalg", "torsion"):
    CASES[f"check_{op}_readme"] = ["check", "--op", op, "--config", json.dumps(README_CONFIG)]
CASES["check_compalg_sheared"] = ["check", "--op", "compalg", "--config",
                                  json.dumps(SHEARED_CONFIG)]


def _report(argv, out):
    code = main(argv + ["--out", str(out)])
    assert code == 0
    return out.read_bytes()


def json_diff(old, new, path="$"):
    """(path, old, new) for each JSON value that differs between two
    documents, descending into objects and equally long arrays."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in list(old) + [k for k in new if k not in old]:
            yield from json_diff(old.get(key, "<absent>"), new.get(key, "<absent>"),
                                 f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from json_diff(a, b, f"{path}[{i}]")
    elif json.dumps(old) != json.dumps(new):
        yield path, old, new


def test_json_diff_names_each_changed_path():
    old = {"a": 1.0, "b": [1, {"c": "x"}], "d": [1, 2], "e": float("nan"), "f": 0}
    new = {"a": 1.0, "b": [1, {"c": "y"}], "d": [1], "e": float("nan"), "g": 0}
    assert list(json_diff(old, new)) == [("$.b[1].c", "x", "y"), ("$.d", [1, 2], [1]),
                                         ("$.f", 0, "<absent>"), ("$.g", "<absent>", 0)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name, tmp_path):
    got = _report(CASES[name], tmp_path / "out.json")
    assert got == (GOLDEN / f"{name}.json").read_bytes()


def refresh_goldens(cases, golden, write, say=print):
    """Report each case against its golden: unchanged, changed or new, with
    each JSON path that differs (old -> new). Writes the new bytes only
    when `write`; returns whether any golden differs."""
    differs = False
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in sorted(cases.items()):
            path = golden / f"{name}.json"
            old = path.read_bytes() if path.exists() else None
            new = _report(argv, Path(tmp) / "out.json")
            if old == new:
                say(f"{name}: unchanged")
                continue
            differs = True
            if write:
                golden.mkdir(exist_ok=True)
                path.write_bytes(new)
            say(f"{name}: {'new' if old is None else 'changed'}")
            for where, a, b in json_diff(json.loads(old or "{}"), json.loads(new)):
                say(f"  {where}: {a!r} -> {b!r}")
    return differs


def test_check_mode_reports_a_change_and_writes_nothing(tmp_path):
    name = "check_torsion_readme"
    doc = json.loads((GOLDEN / f"{name}.json").read_bytes())
    doc["tampered"] = 1
    stale = json.dumps(doc).encode()
    (tmp_path / f"{name}.json").write_bytes(stale)
    lines = []
    assert refresh_goldens({name: CASES[name]}, tmp_path, write=False, say=lines.append)
    assert lines == [f"{name}: changed", "  $.tampered: 1 -> '<absent>'"]
    assert (tmp_path / f"{name}.json").read_bytes() == stale
    assert not refresh_goldens({name: CASES[name]}, GOLDEN, write=False, say=lines.append)


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(description="Regenerate the report goldens.")
    parser.add_argument("--check", action="store_true",
                        help="only compare: write nothing, exit 1 if any golden differs")
    check = parser.parse_args().check
    sys.exit(int(refresh_goldens(CASES, GOLDEN, write=not check) and check))
