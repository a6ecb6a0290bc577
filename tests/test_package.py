"""The package holds only what the tool runs: every top-level name has a user."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tverlab"

# top-level names that package code and perfbench leave unused, and why they stay
ALLOWED = {
    "topology.join": "tests build joins of boards with it, and ROADMAP item 10 computes the index on them",
}


def test_every_top_level_name_in_the_package_has_a_user():
    # a use is a bare name in its own module, a `from ... import name`, an
    # attribute `module.name` (through an alias, or a namespace such as
    # perfbench's `tv.solver`), or the name as a string: perfbench's spans
    # wrap entry points by name
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in files}
    modules = {path.stem for path in files if path.parent == PACKAGE}
    defined = {
        (path.stem, node.name)
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    used = set()
    for path, tree in trees.items():
        nodes = list(ast.walk(tree))
        aliases = {
            a.asname or a.name: a.name.rsplit(".", 1)[-1]
            for node in nodes
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for a in node.names
        }
        for node in nodes:
            if isinstance(node, ast.Name) and path.parent == PACKAGE:
                used.add((path.stem, node.id))
            elif isinstance(node, ast.ImportFrom) and node.module:
                used |= {(node.module.rsplit(".", 1)[-1], a.name) for a in node.names}
            elif isinstance(node, ast.Attribute):
                owner = getattr(node.value, "id", None) or getattr(node.value, "attr", None)
                used.add((aliases.get(owner, owner), node.attr))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {(module, node.value) for module in modules}
    assert {f"{m}.{n}" for m, n in defined - used} == set(ALLOWED)


def test_no_package_module_reads_another_modules_private_name():
    # a read is `from .module import _name`, or `module._name` on a package
    # module bound by `from . import module`; dunder names are public
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        imported = {
            a.asname or a.name
            for node in nodes
            if isinstance(node, ast.ImportFrom) and node.level and node.module is None
            for a in node.names
        }
        for node in nodes:
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                reads += [f"{path.stem}: {node.module}.{a.name}" for a in node.names if private(a.name)]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in imported:
                if private(node.attr):
                    reads.append(f"{path.stem}: {node.value.id}.{node.attr}")
    assert reads == []
