"""Every name that ``src/`` defines at module level or as a method is used.

A function, class, method or module-level constant that nothing names
except its own definition is dead code.  "Named" is a whole-word match in
any source file under ``src/`` or ``perfbench/`` or in README.md, so a use
through a string (the lazy export tables) or a mention in the docs counts
too.  Tests alone keep no name alive, private or public: code that only a
test calls belongs in the test's own oracle module.  A public name (one
that does not start with ``_``) is also checked on its own, so that a
dead part of the package's interface is reported as such.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Methods that the standard library calls by name, so that nothing in the
# project names them: argparse's hooks for usage errors and for ``-h``.
HOOKS = {"error", "print_help"}


def _definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            yield node.name
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if item.name not in HOOKS:
                        yield item.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id


def _word_counts() -> Counter:
    texts = [(ROOT / "README.md").read_text(encoding="utf-8")]
    for top in ("src", "perfbench"):
        texts += [p.read_text(encoding="utf-8") for p in sorted((ROOT / top).rglob("*.py"))]
    return Counter(m.group() for text in texts for m in re.finditer(r"\w+", text))


def _named_only_where_defined(public_only: bool) -> list[str]:
    counts = _word_counts()
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in _definitions(tree):
            # Dunder names are protocol hooks that Python itself looks up.
            if name.startswith("__") and name.endswith("__"):
                continue
            if public_only and name.startswith("_"):
                continue
            if counts[name] < 2:
                unused.append(f"{path.relative_to(ROOT)}: {name}")
    return unused


def test_every_definition_is_named_elsewhere():
    unused = _named_only_where_defined(public_only=False)
    assert not unused, "named only where defined or in tests:\n" + "\n".join(unused)


def test_tests_alone_do_not_keep_a_public_name_alive():
    unused = _named_only_where_defined(public_only=True)
    assert not unused, "public, and named only where defined or in tests:\n" + "\n".join(unused)
