import ast
from pathlib import Path

import formkit as fk

SRC = Path(fk.__file__).parent
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")

# Public names no CLI command reaches from ``cli.main``, each with what keeps it.
LIBRARY_ONLY = {
    "errors.NoConvergence": "raised by parallel_sum_limit (criterion 03)",
    "errors.NotSectorial": "raised by sectorial_parameters (criterion 06)",
    "errors.PreconditionFails": "raised by maximality_check (criterion 04)",
    "lebesgue.is_mutually_singular": "criterion 03",
    "lebesgue.maximality_check": "criterion 04",
    "lebesgue.parallel_sum": "criterion 03",
    "lebesgue.parallel_sum_limit": "criterion 03",
    "lebesgue.positive_lebesgue": "criterion 03",
    "numerics.pinv": "parallel_sum's route for a singular sum (criterion 03)",
    "regularity.SectorialityCertificate": "returned by sectorial_parameters (criterion 06)",
    "regularity.dominated_sequence": "criterion 09",
    "regularity.dominated_sequence_stabilization": "criterion 09",
    "regularity.sectorial_parameters": "criterion 06",
    "solvable.represent_operator": (
        "the closable operator of the paper's abstract; the dense oracle for the "
        "lab's NotSolvable refusal in test_trunclab"
    ),
    "cli.emit_instance": "the instance round trip of criterion 10",
    "__init__.__version__": "package metadata",
}


def _parse(module):
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def _bindings(module):
    """Module-level definitions (name -> node) and relative imports
    (name -> (module, attribute), attribute None for a module alias)."""
    defs, imports = {}, {}
    for node in _parse(module).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                defs.update((n.id, node) for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                source = (alias.name, None) if node.module is None else (node.module, alias.name)
                imports[alias.asname or alias.name] = source
    return defs, imports


TABLE = {module: _bindings(module) for module in MODULES}


def _references(module, node):
    defs, imports = TABLE[module]
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            source = imports.get(n.value.id)
            if source and source[1] is None:
                out.add(f"{source[0]}.{n.attr}")
        elif isinstance(n, ast.Name):
            if n.id in defs:
                out.add(f"{module}.{n.id}")
            elif n.id in imports and imports[n.id][1] is not None:
                out.add(".".join(imports[n.id]))
    return out


def reached_from(roots):
    """Closure of module-level names ``module.name`` over formkit's modules."""
    reached, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        module, name = key.split(".")
        if module not in TABLE:
            continue
        defs, imports = TABLE[module]
        if imports.get(name, (None, None))[1] is not None:
            todo.append(".".join(imports[name]))
        elif name in defs:
            todo.extend(_references(module, defs[name]) - reached)
    return reached


def unreached_definitions():
    """(module.name, lines) of each function and class no command reaches."""
    reached = reached_from(["cli.main"])
    out = []
    for module in MODULES:
        for name, node in TABLE[module][0].items():
            key = f"{module}.{name}"
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and key not in reached:
                out.append((key, node.end_lineno - node.lineno + 1))
    return out


def _homes():
    """The ``module.name`` each public name is defined at."""
    imports = {}
    for node in _parse("__init__").body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imports.update((alias.name, node.module) for alias in node.names)
    return {name: f"{imports.get(name, '__init__')}.{name}" for name in fk.__all__}


def test_public_names_resolve_once():
    names = fk.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(fk, name)]
    assert missing == []


def test_every_export_is_reached_or_argued():
    reached = reached_from(["cli.main"])
    unreached = {home for home in _homes().values() if home not in reached}
    assert unreached - set(LIBRARY_ONLY) == set(), "reached by no command: argue or delete"
    assert set(LIBRARY_ONLY) & reached == set(), "reached by a command: drop from the list"


def test_no_definition_is_dead():
    reached = reached_from(["cli.main", *LIBRARY_ONLY])
    dead = [key for key, _ in unreached_definitions() if key not in reached]
    assert dead == []


def test_modules_use_every_name_they_import():
    unused = []
    for module in MODULES:
        tree = _parse(module)
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{module}.{name}" for name in sorted(imported - used)]
    assert unused == []


if __name__ == "__main__":
    rows = unreached_definitions()
    for key, lines in rows:
        print(f"{lines:4d}  {key}")
    print(f"{len(rows)} definitions, {sum(lines for _, lines in rows)} lines reached by no command")
