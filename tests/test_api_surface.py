"""No public API that only the tests use.

Every public function, class and method has a caller in the program, and
every parameter with a default is passed by one or more of its call sites.
The program is `src/coresel`, `scripts` and `perfbench`; a name inside a
string, such as a perfbench patch target, is not a call. Calls are matched
to definitions by name alone.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROGRAM = ("src/coresel", "scripts", "perfbench")


def parsed(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def public_defs():
    """(owner, FunctionDef or ClassDef, is a method) for every public name in the package."""
    for path, tree in parsed("src/coresel"):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path.stem, node, False
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for m in node.body:
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                        yield f"{path.stem}.{node.name}", m, True


def callee(call):
    return call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)


def test_every_public_name_is_used_outside_the_tests():
    used = set()
    for _, tree in parsed(*PROGRAM):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    assert [f"{owner}.{node.name}" for owner, node, _ in public_defs() if node.name not in used] == []


def test_every_optional_parameter_is_passed_outside_the_tests():
    positions, keywords = {}, {}  # callee name -> most positional arguments of a call, keyword names
    for _, tree in parsed(*PROGRAM):
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                name = callee(call)
                starred = any(isinstance(a, ast.Starred) for a in call.args)
                positions[name] = max(positions.get(name, 0), float("inf") if starred else len(call.args))
                keywords.setdefault(name, set()).update(k.arg for k in call.keywords)  # None stands for **kwargs
    unpassed = []
    for owner, node, method in public_defs():
        if isinstance(node, ast.ClassDef):
            continue
        args = node.args
        ordered = (args.posonlyargs + args.args)[1 if method else 0 :]
        optional = [(i, p.arg) for i, p in enumerate(ordered) if i >= len(ordered) - len(args.defaults)]
        optional += [(None, p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        for i, arg in optional:
            by_position = i is not None and positions.get(node.name, 0) > i
            by_keyword = {arg, None} & keywords.get(node.name, set())
            if not (by_position or by_keyword):
                unpassed.append(f"{owner}.{node.name}.{arg}")
    assert unpassed == []
