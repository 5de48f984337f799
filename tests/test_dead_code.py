"""Every public top-level function and class in the package has a caller in
the package, or a named reason to stay; every private top-level function,
class and module constant has a caller in the package.  Every defaulted
parameter is passed, and every annotated class field is read, somewhere in
the package, or has a named reason to stay."""

import ast
from collections import defaultdict
from pathlib import Path

import covertsim

# public names that nothing in the package references, each with its reason
KEPT = {
    "TrialRng": "C8 synthesizes reference waveforms with it",
    "synthesize_willie_slot": "C8's reference waveform, the oracle of sample_block_powers",
    "total_power": "C8 reduces the reference waveforms with it",
    "log_lrt_awgn": "C4 and C8 import it",
    "log_lrt_block_term": "C5 imports it",
    "log_lrt_m1": "C8 imports it",
    "log_lrt_mblock": "C5 imports it",
    "log_integral_block": "C8 imports it",
    "log_mixture_density_uniform": "C8 imports it",
    "outage_capacity": "C9 calls it",
    "save_scenario": "C10 writes its configs with it",
}

# defaulted parameters that no call in the package passes, each with its reason
KEPT_PARAMS = {
    "main(argv)": "the tests drive the CLI in-process through it",
    "estimate_boundary_mass(spot_checks)": "C7 passes it",
}

# annotated class fields that nothing in the package reads, each with its reason
KEPT_FIELDS = {
    "Latents.jam_power": "the oracle link: tests condition on the true jam power",
    "Observation.latents": "the oracle link: tests reach the hidden channel state through it",
    "GridCheck.worst_at": "check.json writes it through dataclasses.asdict",
}


def _modules():
    return [(path.name, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(Path(covertsim.__file__).parent.glob("*.py"))]


def _definitions_and_references():
    """The package's top-level public functions and classes, its private
    functions, classes and module constants, each mapped to its module, and
    every name referenced outside its own definition."""
    public, private, referenced = {}, {}, set()
    for module, tree in _modules():
        for node in tree.body:
            own = set()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = {node.name}
                if not node.name.startswith("_"):
                    public[node.name] = module
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                own = {t.id for t in targets if isinstance(t, ast.Name)}
            private.update((name, module) for name in own
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


def _calls_by_name(trees):
    """Per callee name, one (positional count, keyword names) pair per call
    in the package, or None for a call that passes every parameter: one
    with * or **, or a reference to the name other than as a callee (the
    function is then called where the package cannot see)."""
    calls = defaultdict(list)
    for _, tree in trees:
        callees = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callees.add(node.func)
                spread = (any(isinstance(arg, ast.Starred) for arg in node.args)
                          or any(kw.arg is None for kw in node.keywords))
                calls[getattr(node.func, "id", getattr(node.func, "attr", None))].append(
                    None if spread else (len(node.args), {kw.arg for kw in node.keywords}))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and node not in callees:
                calls[getattr(node, "id", None) or node.attr].append(None)
    return calls


def _defaulted_and_passed():
    """Each defaulted parameter of a top-level function or of a method of a
    top-level class, as "function(param)" or "Class.method(param)" mapped to
    its module, and the set of those some call in the package passes, by
    position or keyword; calls are matched by the callee's name."""
    trees = _modules()
    calls = _calls_by_name(trees)
    defaulted, passed = {}, set()
    for module, tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs = [(node.name, node, 0)]
            elif isinstance(node, ast.ClassDef):
                # a method called on an instance or a class does not pass self or cls
                defs = [(f"{node.name}.{fn.name}", fn, 0 if any(
                    getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list) else 1)
                    for fn in node.body if isinstance(fn, ast.FunctionDef)]
            else:
                continue
            for qualname, fn, bound in defs:
                args = fn.args
                positional = [p.arg for p in args.posonlyargs + args.args][bound:]
                optional = positional[len(positional) - len(args.defaults):]
                optional += [p.arg for p, d in zip(args.kwonlyargs, args.kw_defaults) if d]
                for param in optional:
                    key = f"{qualname}({param})"
                    defaulted[key] = module
                    if any(call is None or param in positional[:call[0]] or param in call[1]
                           for call in calls[fn.name]):
                        passed.add(key)
    return defaulted, passed


def test_every_defaulted_parameter_is_passed():
    # a default that only tests override is a second entry the package never takes
    defaulted, passed = _defaulted_and_passed()
    assert {key: module for key, module in defaulted.items()
            if key not in passed and key not in KEPT_PARAMS} == {}


def test_every_kept_parameter_is_defined_and_unpassed():
    defaulted, passed = _defaulted_and_passed()
    assert {key for key in KEPT_PARAMS if key in defaulted and key not in passed} == set(KEPT_PARAMS)


def _fields_and_loads():
    """Each annotated field of a package class, as "Class.field" mapped to
    its module, and every attribute name the package loads."""
    fields, loaded = {}, set()
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                fields.update((f"{node.name}.{item.target.id}", module) for item in node.body
                              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return fields, loaded


def test_every_field_is_read():
    # a field only ever stored, or read only by tests, is state nothing uses
    fields, loaded = _fields_and_loads()
    assert {key: module for key, module in fields.items()
            if key.split(".")[1] not in loaded and key not in KEPT_FIELDS} == {}


def test_every_kept_field_is_defined_and_unread():
    fields, loaded = _fields_and_loads()
    assert {key for key in KEPT_FIELDS
            if key in fields and key.split(".")[1] not in loaded} == set(KEPT_FIELDS)


def test_no_module_reads_another_modules_private_name():
    # a helper one module needs from another is public in the other
    reads = set()
    for module, tree in _modules():
        modules = set()  # names bound to a covertsim module
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                source = node.module
            elif node.module == "covertsim" or (node.module or "").startswith("covertsim."):
                source = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                if source is None:
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    reads.add((module, f"{source}.{alias.name}"))
        reads.update(
            (module, f"{node.value.id}.{node.attr}") for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and node.attr.startswith("_")
        )
    assert reads == set()
