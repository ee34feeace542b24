"""Module boundaries inside the package."""

import ast
from pathlib import Path

import mnmt

SRC = Path(mnmt.__file__).parent
BENCH = SRC.parents[1] / "bench"
TAPE_ONLY = {"mul", "sum_all", "transpose", "reshape", "tanh", "concat", "take", "softmax"}


def test_no_module_imports_another_modules_private_names():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                              f"import {alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
    assert offenders == []


def test_each_module_level_constant_is_assigned_in_one_module():
    owners: dict[str, list[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and name.id != "logger":
                        owners.setdefault(name.id, []).append(path.name)
    assert {name: files for name, files in owners.items() if len(files) > 1} == {}


def test_no_module_defines_or_imports_a_test_only_tape_kernel():
    # the per-op tape kernels live in tests/conftest.py; numpy's functions and
    # array methods of the same names are not theirs
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [f"{path.name}: def {node.name}" for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name in TAPE_ONLY]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                offenders += [f"{path.name}: import {alias.name}"
                              for alias in node.names if alias.name in TAPE_ONLY]
            elif (isinstance(node, ast.Attribute) and node.attr in TAPE_ONLY
                  and isinstance(node.value, ast.Name) and node.value.id == "numerics"):
                offenders.append(f"{path.name}: numerics.{node.attr}")
    assert offenders == []


def test_no_module_defines_a_tape():
    # every gradient is a hand-written backward that writes into the parameter
    # store; the generic tape (Tensor, parent links, a topological sort) lives
    # in tests/conftest.py as a reference
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == "Tensor":
                offenders.append(f"{path.name}: defines {node.name}")
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else "")
            if name in {"Tensor", "_parents"} or "topo" in name:
                offenders.append(f"{path.name}:{node.lineno}: {name}")
    assert offenders == []


def test_only_the_model_runs_the_decoder_step():
    # one decoder recurrence: training, memory records and beam search reach
    # the step through model.py's drivers, never by stepping it themselves
    step_names = {"step_forward", "DecoderWeights"}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "model.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ({alias.name for alias in node.names} if isinstance(node, ast.ImportFrom)
                     else {node.name} if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                     else {node.id} if isinstance(node, ast.Name)
                     else {node.attr} if isinstance(node, ast.Attribute) else set())
            offenders += [f"{path.name}:{node.lineno}: {name}" for name in names & step_names]
    assert offenders == []


def test_no_assert_statement_in_the_package():
    # python -O strips assert statements, so a check in the package raises instead
    offenders = [f"{path.name}:{node.lineno}"
                 for path in sorted(SRC.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Assert)]
    assert offenders == []


def test_only_read_lines_opens_a_text_input():
    # every text input goes through corpus.read_lines, which names the file and
    # the line on invalid UTF-8; the only other reads are of checkpoint bytes
    readers = []
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                name = (node.func.id if isinstance(node.func, ast.Name)
                        else node.func.attr if isinstance(node.func, ast.Attribute) else "")
                if name in {"read_text", "read_bytes", "loadtxt", "genfromtxt"}:
                    readers.append(f"{path.name}:{func.name}: {name}")
                elif name == "open":
                    modes = list(node.args[1:2]) + [k.value for k in node.keywords
                                                           if k.arg == "mode"]
                    mode = modes[0].value if modes else "r"
                    if not set(mode) & set("wax+"):
                        readers.append(f"{path.name}:{func.name}: open {mode}")
    assert sorted(readers) == ["checkpoint.py:load_checkpoint: open rb",
                               "corpus.py:read_lines: open rb"]


def test_every_definition_in_the_package_has_a_user_in_the_program():
    # a function, class or method that only tests reach leaves the package;
    # the program is the package and the bench, and an import is not a use
    used = set()
    for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, defs):
                continue
            names = [node.name]
            if isinstance(node, ast.ClassDef):
                names += [f"{node.name}.{item.name}" for item in node.body
                          if isinstance(item, defs) and not item.name.startswith("__")]
            unused += [f"{path.stem}.{name}" for name in names
                       if name.rsplit(".", 1)[-1] not in used]
    assert unused == []
