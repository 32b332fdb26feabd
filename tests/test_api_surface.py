"""No public API that only the tests use: every public function, class and method has a caller in the program."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def parsed(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_every_public_name_is_used_outside_the_tests():
    used = set()
    for _, tree in parsed("src/coresel", "scripts", "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.startswith("coresel."):
                used.update(node.value.partition(":")[2].split("."))  # perfbench's "coresel.mod:Class.attr" places
    public = []
    for path, tree in parsed("src/coresel"):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                public.append((path.stem, node.name))
            if isinstance(node, ast.ClassDef):
                public += [(f"{path.stem}.{node.name}", m.name) for m in node.body if isinstance(m, ast.FunctionDef)]
    assert [f"{owner}.{name}" for owner, name in public if not name.startswith("_") and name not in used] == []
