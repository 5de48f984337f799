"""Every random draw in the package comes from synth.substream: it alone
builds a Philox generator or reduces a seed modulo 2**64, and no two
substream purposes share a value."""

import ast
from pathlib import Path

import covertsim
from covertsim import synth


def _is_mod_2_64(node):
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
            and ast.unparse(node.right).replace(" ", "") == "2**64")


def _sites(match):
    """(module, top-level definition) of every node in the package that
    match accepts; the definition is None at module level."""
    sites = set()
    for path in sorted(Path(covertsim.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if any(match(sub) for sub in ast.walk(node)):
                sites.add((path.name, getattr(node, "name", None)))
    return sites


def test_only_substream_builds_a_philox_generator():
    def philox(node):
        return ((isinstance(node, ast.Name) and node.id == "Philox")
                or (isinstance(node, ast.Attribute) and node.attr == "Philox"))

    assert _sites(philox) == {("synth.py", "substream")}


def test_only_substream_reduces_a_seed():
    assert _sites(_is_mod_2_64) == {("synth.py", "substream")}


def test_purposes_are_distinct():
    # synth's public integer constants are exactly its substream purposes
    purposes = {name: value for name, value in vars(synth).items()
                if not name.startswith("_") and type(value) is int}
    assert {"CODEWORD", "JAMMER", "FADE_AW", "FADE_JW", "NOISE_W",
            "FADE_AB", "FADE_JB", "BOUNDARY"} <= set(purposes)
    assert len(set(purposes.values())) == len(purposes), purposes
