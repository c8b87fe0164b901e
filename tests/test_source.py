import ast
import pathlib
import subprocess
import sys

import fpss

# functions and methods that src/fpss keeps for the tests alone, each an
# independent oracle or a hook the tests drive
TEST_HOOKS = {
    "basis_at",     # a page's basis in one bidegree, against iter_region
    "dense_rank",   # dense elimination, against Echelon
    "scaled",       # a rule times a unit, for unit invariance
}


def test_no_function_is_left_for_its_tests_alone():
    # a def whose name nothing in src/fpss loads or looks up as an
    # attribute is used by the tests at most, so it goes unless it is a
    # listed hook; names are matched by spelling, not by binding
    defs, refs = {}, set()
    for path in sorted(pathlib.Path(fpss.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.setdefault(node.name, []).append(
                    f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    unused = {name: where for name, where in defs.items()
              if name not in refs and not (name.startswith("__")
                                           and name.endswith("__"))}
    assert set(unused) <= TEST_HOOKS, \
        {name: unused[name] for name in set(unused) - TEST_HOOKS}
    assert TEST_HOOKS <= set(defs)


def test_every_test_hook_has_a_test():
    # a hook no test names is dead code the allowlist would hide; this
    # file's own mentions do not count
    here = pathlib.Path(__file__).resolve()
    refs = set()
    for path in sorted(here.parent.rglob("*.py")):
        if path == here:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name)
    assert TEST_HOOKS <= refs, TEST_HOOKS - refs


def test_no_module_imports_dataclasses():
    # every record is a NamedTuple or a slotted class: generating dataclass
    # methods cost about a fifth of the package's import time
    found = []
    for path in sorted(pathlib.Path(fpss.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = str(pathlib.Path(fpss.__file__).parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import fpss.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-c", code, src], text=True,
                         capture_output=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]", out.stdout + out.stderr


def test_importing_the_cli_leaves_json_out():
    # json is loaded only where --format structured output is written, and
    # the driver reads argv itself: neither argparse nor the gettext and
    # locale modules it pulls in are paid for by a default command
    src = str(pathlib.Path(fpss.__file__).parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import fpss.cli; "
            "codes = [fpss.cli.main(['verify', 'thm-8.10']), fpss.cli.main("
            "['tables', 'tate:cp:1', '--page', '3', '--window', '0:6'])]; "
            "print(codes, [m for m in ('argparse', 'gettext', 'locale', "
            "'json') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-I", "-c", code, src], text=True,
                         capture_output=True, timeout=60, check=True)
    assert out.stdout.splitlines()[-1] == "[0, 0] []", out.stdout + out.stderr


def test_no_module_reads_attributes_by_name():
    # a page is read one way, by its iter_region; getattr and hasattr would
    # let a duck-typed second read path come back
    found = []
    for path in sorted(pathlib.Path(fpss.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in ("getattr", "hasattr"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
