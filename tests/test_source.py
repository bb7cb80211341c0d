"""Static checks on the package source."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import re
from collections import Counter
from pathlib import Path

import pytest

import evomapf

PACKAGE = Path(evomapf.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parent.parent
# Where a definition in the package may be used: the sources, the tests and the benchmark.
READERS = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]


def load_tracing():
    """The benchmark's tracer module, loaded from its file without importing the benchmark's workloads."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = load_tracing()


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # Quoted annotations such as "TabularPolicy" name a class as a string.
    used |= {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier()
    }
    return [name for name in imported if name not in used]


def test_the_checker_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a.b import c as d, e\nprint(sys, e)\n") == ["os", "d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_definitions(package: list[str], others: list[str]) -> list[str]:
    """Functions, classes and methods defined in package whose name appears nowhere else.

    A name counts as used when it occurs as a word in any of the texts
    more often than it is defined in package.  Dunder methods are called
    implicitly and are not checked.
    """
    defined = Counter(
        node.name
        for source in package
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )
    words = Counter(word for text in package + others for word in re.findall(r"\w+", text))
    return sorted(name for name, count in defined.items() if words[name] <= count)


def test_the_checker_finds_an_unreferenced_definition():
    package = ["class A:\n    def m(self):\n        return helper()\n    def n(self):\n        pass\n",
               "def helper():\n    pass\ndef lonely():\n    pass\n"]
    assert unreferenced_definitions(package, ["A().m()"]) == ["lonely", "n"]


def test_every_package_definition_is_used_somewhere():
    package = {path.resolve(): path.read_text() for path in PACKAGE.glob("*.py")}
    others = [
        path.read_text()
        for root in READERS
        for path in sorted(root.rglob("*.py"))
        if path.resolve() not in package
    ]
    assert unreferenced_definitions(list(package.values()), others) == []


@pytest.mark.parametrize("module_name, qualname", TRACING.TRACED, ids=lambda name: name)
def test_every_traced_name_resolves_where_the_tracer_patches_it(module_name, qualname):
    """The benchmark's tracer patches a method in its class's __dict__ and a function as a module attribute.

    A renamed or deleted package name fails here, by name, instead of as a
    KeyError inside a benchmark run.  So names that only the tracer reads,
    such as GridEnv.step, TabularPolicy.sample_action, RewardMachine.weights
    and bench.plan_rollout, stay until the benchmark stops tracing them.
    """
    module = importlib.import_module(f"{TRACING.PACKAGE}.{module_name}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        assert attr in vars(getattr(module, cls_name)), qualname
    else:
        assert callable(getattr(module, qualname, None)), qualname


# The wording of a bound on one setting; a relation between two settings,
# such as `goal_reward must be at least collision_penalty`, is not one.
BOUND_WORDING = re.compile(r"must (lie in|be finite|be positive|be non-negative|be at least (?![A-Za-z_]))")


def bound_messages(source: str) -> list[str]:
    """Text of each string in the source that words a bound, outside any function named check_range.

    An f-string reads with `{}` for each formatted value, so `f"{name} must
    be at least {least}"` reads `{} must be at least {}`.
    """
    tree = ast.parse(source)
    exempt = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name == "check_range"
        for node in ast.walk(func)
    }
    texts = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.JoinedStr):
            texts.append("".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values))
            exempt.update(map(id, node.values))  # read above as parts of this string
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            texts.append(node.value)
    return [text for text in texts if BOUND_WORDING.search(text)]


def test_the_checker_finds_a_bound_worded_outside_the_helper():
    source = '''
def check_range(name, value, low):
    raise ValueError(f"{name} must be at least {low}")

def f(x, least):
    if x < least:
        raise ValueError(f"x must be at least {least}, got {x}")
    if x < 0:
        raise ValueError("x must be non-negative")
    if x > 2 * least:
        raise ValueError("x must be at least least, twice over")
'''
    assert bound_messages(source) == ["x must be at least {}, got {}", "x must be non-negative"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_check_range_words_a_bound(path):
    """Every range check goes through gridworld.check_range, which owns the wording of its message."""
    assert bound_messages(path.read_text()) == []


# A dotted name, not one that starts inside a path (`src/evomapf/egt.py`) or inside a longer name.
DOTTED_NAME = re.compile(r"(?<![\w./])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
FILE_SUFFIXES = {"py", "json", "csv", "md", "ini", "txt"}
PACKAGE_MODULES = {path.stem: importlib.import_module(f"evomapf.{path.stem}") for path in MODULES}
PACKAGE_CLASSES = {
    name: obj
    for module in PACKAGE_MODULES.values()
    for name, obj in vars(module).items()
    if isinstance(obj, type) and obj.__module__ == module.__name__
}


def has_attribute(owner, attr: str) -> bool:
    """Whether owner has attr, counting a class's annotated fields and the attributes its methods set on self."""
    if hasattr(owner, attr) or attr in getattr(owner, "__annotations__", {}):
        return True
    return isinstance(owner, type) and re.search(rf"\bself\.{attr}\s*=", inspect.getsource(owner)) is not None


def unresolved_doc_names(text: str) -> list[str]:
    """Backticked dotted names whose first part is a package module or class but which do not resolve.

    Names that start elsewhere (`np.add.at`, `rng.random`, INI keys such as
    `env.horizon`) and file names (`BENCH_8.json`) are not checked.
    """
    unresolved = []
    for span in re.findall(r"`([^`]*)`", text):
        for name in DOTTED_NAME.findall(span):
            first, *rest = name.split(".")
            owner = PACKAGE_MODULES.get(first, PACKAGE_CLASSES.get(first))
            if owner is None or rest[-1] in FILE_SUFFIXES:
                continue
            for attr in rest:
                if not has_attribute(owner, attr):
                    unresolved.append(name)
                    break
                owner = getattr(owner, attr, None)
    return unresolved


def test_the_checker_finds_a_stale_doc_name():
    text = ("`egt._distinct` and `BatchRollout.visit_keys(bins)` went; `GridEnv.start_index`, "
            "`BatchRollout.cells`, `gridworld.roll_batch`, `egt.py`, `np.add.at` and `env.horizon` pass")
    assert unresolved_doc_names(text) == ["egt._distinct", "BatchRollout.visit_keys"]


def test_every_package_name_in_the_readme_resolves():
    """A rename that leaves README naming the old package attribute fails here, by name."""
    assert unresolved_doc_names((ROOT / "README.md").read_text()) == []
