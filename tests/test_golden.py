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
one ideal hypothesis each. The ``decompose-invalid-*`` cases decompose an
algebra (``golden/invalid-*.algebra``) that fails one algebra axiom each,
with ``--ideal auto``, with the sample's ideal file and with an ideal file
that does not parse (``golden/unparsed.ideal``): each exits 1 with the
violation reading the algebra raises. A change here is a change of the user-facing contract
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


AXIOMS = ("grading", "super-skew", "jacobi", "metric-degree", "super-symmetry", "invariance", "non-degenerate")


def test_golden_covers_every_algebra_axiom():
    """decompose of an algebra that fails each axiom, whichever way its
    ideal is given, exits 1 with the algebra's own violation and writes
    nothing; the three ways of one algebra print the same line."""
    cases = {c["name"]: c for c in CASES if c["name"].startswith("decompose-invalid-")}
    assert set(cases) == {f"decompose-invalid-{v}-{how}" for v in AXIOMS for how in ("auto", "ideal", "unparsed")}
    for v in AXIOMS:
        ways = [cases[f"decompose-invalid-{v}-{how}"] for how in ("auto", "ideal", "unparsed")]
        assert ways[0]["argv"][1] == f"{{golden}}/invalid-{v}.algebra"
        for case in ways:
            assert (case["code"], case["stdout"], case["output"]) == (1, "", None), case["name"]
            assert case["stderr"] == ways[0]["stderr"] and case["stderr"].startswith("violation: "), case["name"]
            assert case["stderr"].count("\n") == 1
