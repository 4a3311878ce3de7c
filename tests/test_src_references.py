"""Code that only tests reach belongs in tests/, not in the package: every
public top-level name of src/vccsat must be used somewhere in src/vccsat.
Each name is imported from its own module; the package itself binds only
`__version__`, so there is no second import path to keep in step."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vccsat"

# module.name -> why it stays in src/ with no caller there
ALLOWED = {
    "experiments.mc_transmit_power": "wrapped by perfbench/tracer.py; acceptance c02 checks it",
    "experiments.mc_moment_oracle": "wrapped by perfbench/tracer.py; acceptance c01 checks it",
}


def _defined(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if not n.startswith("_")]


def test_package_binds_only_its_version():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert [n for n in imported if not n.startswith("_")] + _defined(tree) == []


def test_every_public_name_is_used_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for module, tree in trees.items()
        if module != "__init__"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )
    defined = {f"{module}.{name}": name for module, tree in trees.items() for name in _defined(tree)}
    assert set(ALLOWED) <= set(defined)
    unused = sorted(key for key, name in defined.items() if not used[name] and key not in ALLOWED)
    assert not unused, f"public names no code in src/vccsat uses: {unused}"
