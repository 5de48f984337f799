"""Every public top-level function and class in the package has a caller in
the package, or a named reason to stay; every private top-level function,
class and module constant has a caller in the package."""

import ast
from pathlib import Path

import covertsim

# public names that nothing in the package references, each with its reason
KEPT = {
    "TrialRng": "C8 synthesizes reference waveforms with it",
    "synthesize_willie_slot": "C8's reference waveform, the oracle of sample_block_powers",
    "total_power": "C8 reduces the reference waveforms with it",
    "log_lrt_m1": "C8 imports it",
    "outage_capacity": "C9 calls it",
    "save_scenario": "C10 writes its configs with it",
}


def _definitions_and_references():
    """The package's top-level public functions and classes, its private
    functions, classes and module constants, each mapped to its module, and
    every name referenced outside its own definition."""
    public, private, referenced = {}, {}, set()
    for path in sorted(Path(covertsim.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = set()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = {node.name}
                if not node.name.startswith("_"):
                    public[node.name] = path.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                own = {t.id for t in targets if isinstance(t, ast.Name)}
            private.update((name, path.name) for name in own
                           if name.startswith("_") and not name.startswith("__"))
            # a name used only inside its own definition has no caller
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id not in own:
                    referenced.add(sub.id)
                elif isinstance(sub, ast.Attribute) and sub.attr not in own:
                    referenced.add(sub.attr)
    return public, private, referenced


def test_every_public_name_has_a_caller():
    public, _, referenced = _definitions_and_references()
    unused = {name: module for name, module in public.items()
              if name not in referenced and name not in KEPT}
    assert unused == {}


def test_every_kept_name_is_defined_and_unused():
    # an entry that gained a caller, or whose definition went, is stale
    public, _, referenced = _definitions_and_references()
    assert {name for name in KEPT if name in public and name not in referenced} == set(KEPT)


def test_every_private_name_has_a_caller():
    # a helper left behind by a deleted path has none
    _, private, referenced = _definitions_and_references()
    assert {name: module for name, module in private.items() if name not in referenced} == {}
