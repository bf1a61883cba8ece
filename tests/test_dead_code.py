"""No dead code: every module-level name of src/causalnc/ is named elsewhere in src/, every parameter in its body.

A name counts as used where src/ reads it (a name, an attribute or an
imported name) outside the definition that binds it, so a function that
only calls itself, or a constant that only its own assignment mentions, is
dead.  The package's exports in __init__.py count as uses.  Two names are
read only from outside src/: the console script cli.entrypoint, which
pyproject.toml names, and __version__.  A parameter counts as read where
its function's or lambda's body loads it, nested definitions included; a
parameter whose name starts with "_" is unused on purpose.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "causalnc"
EXEMPT = {"cli.entrypoint", "__init__.__version__"}


def _definitions(tree: ast.Module):
    """(name, statement) for each function, class and assigned name at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node


def _uses(node: ast.AST) -> Counter:
    """How often the subtree reads each identifier: loaded names, attributes and imported names."""
    uses = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            uses[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            uses[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            uses[sub.name] += 1
    return uses


def test_every_module_level_name_in_src_is_used_elsewhere_in_src():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    total = sum((_uses(tree) for tree in trees.values()), Counter())
    dead = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, node in _definitions(tree)
        if total[name] - _uses(node)[name] == 0 and f"{module}.{name}" not in EXEMPT
    ]
    assert len(trees) > 5 and sum(1 for tree in trees.values() for _ in _definitions(tree)) > 100
    assert dead == []


def _parameters(node) -> list[str]:
    arguments = node.args
    names = [a.arg for a in (*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs)]
    return names + [a.arg for a in (arguments.vararg, arguments.kwarg) if a is not None]


def test_every_parameter_in_src_is_read_in_its_body():
    unread = []
    checked = 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            body = node.body if isinstance(node, ast.Lambda) else ast.Module(node.body, [])
            loaded = {
                sub.id for sub in ast.walk(body) if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            }
            for name in _parameters(node):
                checked += 1
                if name not in loaded and not name.startswith("_"):
                    unread.append(f"{path.stem}.{getattr(node, 'name', '<lambda>')}:{node.lineno}({name})")
    assert checked > 300
    assert unread == []
