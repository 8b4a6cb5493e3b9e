"""Golden CLI results: exit code, stdout, stderr and output bytes.

``golden/cases.json`` was recorded from the implementation before the
checkers shared their cyclic-sum and curvature kernels; it covers every
command on the shipped samples and ``extend`` on one planted violation per
context axiom (``golden/*.context``). The ``coprime`` cases were recorded
before the context checks moved onto integer views: a context whose h is
moved by a basis with coprime p/q column scales (the lcm of its
denominators is above 10^10), its extension, and planted deh1, deh2, deh3
and rho-skew defects. The ``decompose-planted-ideal-*`` cases split the
Heisenberg sample along an ideal file (``golden/ideal-*.ideal``) that breaks
one ideal hypothesis each. A change here is a change of the user-facing contract
and must be deliberate.
"""

import json
from pathlib import Path

import pytest

from superquad.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_cli(case, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [a.replace("{samples}", str(ROOT / "samples")).replace("{golden}", str(GOLDEN))
            .replace("{out}", str(out)) for a in case["argv"]]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == case["code"]
    assert captured.out.replace(str(out), "{out}") == case["stdout"]
    assert captured.err.replace(str(out), "{out}") == case["stderr"]
    assert (out.read_bytes().decode() if out.exists() else None) == case["output"]


def test_golden_covers_every_context_axiom():
    planted = {c["name"].removeprefix("extend-planted-") for c in CASES
               if c["name"].startswith("extend-planted-")}
    assert planted == {
        "metric-degree", "rho-degree", "rho-derivation", "rho-skew",
        "lambda-even", "lambda-skew", "omega-even", "omega-skew",
        "deh1", "deh2", "deh3", "super-cyclic",
    }


def test_golden_covers_every_ideal_claim():
    """Each ideal hypothesis a well-formed ideal file can break; an empty
    ideal or a vector of the wrong length is a usage error in the CLI."""
    planted = {c["name"].removeprefix("decompose-planted-") for c in CASES
               if c["name"].startswith("decompose-planted-")}
    assert planted == {
        "ideal-homogeneous", "ideal-independent", "ideal-isotropic", "ideal-abelian", "ideal-invariant",
    }
    for case in CASES:
        if case["name"].startswith("decompose-planted-"):
            claim = case["name"].removeprefix("decompose-planted-")
            assert case["code"] == 1 and case["stderr"].startswith(f"violation: {claim}: witness ("), case
