"""Every public top-level function and class in the package has a caller in
the package, or a named reason to stay."""

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
    "load_scenario": "perfbench/launch.py loads the config inside the timed setup",
}


def _public_definitions_and_references():
    defined, referenced = {}, set()
    for path in sorted(Path(covertsim.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = node.name
                if not own.startswith("_"):
                    defined[own] = path.name
            # a name used only inside its own definition has no caller
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id != own:
                    referenced.add(sub.id)
                elif isinstance(sub, ast.Attribute) and sub.attr != own:
                    referenced.add(sub.attr)
    return defined, referenced


def test_every_public_name_has_a_caller():
    defined, referenced = _public_definitions_and_references()
    unused = {name: module for name, module in defined.items()
              if name not in referenced and name not in KEPT}
    assert unused == {}


def test_every_kept_name_is_defined_and_unused():
    # an entry that gained a caller, or whose definition went, is stale
    defined, referenced = _public_definitions_and_references()
    assert {name for name in KEPT if name in defined and name not in referenced} == set(KEPT)
