"""Byte-for-byte regression against outputs recorded from an earlier release.

The system files are the README examples (``sys.txt``, ``sq.txt``) and two
unscaled rungs of the benchmark's dual-element ladder (``cube3.txt``,
``cyclic3.txt``); the expected stdout of each command sits next to them in
``tests/golden``.  ``verify thm3 --seed 586795`` is pinned in full, since its
seven ``homotopic`` reports render the witnesses the linear solver picks.
The full ``verify all --seed 42`` report is pinned by its sha256.
"""

import hashlib
from pathlib import Path

import pytest

from koszulkit.cli import main

GOLDEN = Path(__file__).parent / "golden"

VERIFY_ALL_SEED42_SHA256 = "0bc03e7cb75f568347479c728b5720838212187d0e0a7aeff0f4eabeefc16329"

CASES = [
    ("sys", ["dual-element"], "sys.dual-element.json"),
    ("sys", ["pair", "--poly", "x1*x2"], "sys.pair.json"),
    ("sys", ["groebner"], "sys.groebner.json"),
    ("sq", ["dual-element"], "sq.dual-element.json"),
    ("sq", ["pair", "--poly", "x"], "sq.pair.json"),
    ("sq", ["groebner"], "sq.groebner.json"),
    ("cube3", ["dual-element"], "cube3.dual-element.json"),
    ("cyclic3", ["dual-element"], "cyclic3.dual-element.json"),
]


@pytest.mark.parametrize("system, argv, expected", CASES)
def test_command_stdout_matches_recording(capsys, system, argv, expected):
    path = str(GOLDEN / f"{system}.txt")
    code = main([argv[0], path, *argv[1:]])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / expected).read_text()


def test_pair_with_undeclared_variable_prints_nothing(capsys):
    code = main(["pair", str(GOLDEN / "sq.txt"), "--poly", "x1*x2"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_verify_all_seed42_digest(capsys, monkeypatch):
    monkeypatch.delenv("KOSZULKIT_SEED", raising=False)
    assert main(["verify", "all", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SEED42_SHA256


def test_verify_thm3_witnesses_match_recording(capsys, monkeypatch):
    monkeypatch.delenv("KOSZULKIT_SEED", raising=False)
    assert main(["verify", "thm3", "--seed", "586795"]) == 0
    expected = (GOLDEN / "thm3.seed586795.json").read_text()
    assert capsys.readouterr().out == expected
