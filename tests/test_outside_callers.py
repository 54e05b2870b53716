"""The package as code outside it uses it: README's library example and
the names perfbench's span tracer looks up."""

import ast
import contextlib
import importlib
import importlib.util
import io
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_readme_library_example_runs():
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(),
                            flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    assert out.getvalue() == "(200, 64)\n"


def _tracer_targets():
    path = os.path.join(ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans._TARGETS


@pytest.mark.parametrize("module,attr", [
    (module, attr) for module, attr, _ in _tracer_targets()])
def test_tracer_target_is_where_the_tracer_looks(module, attr):
    # a traced run swaps owner.__dict__[attr] and raises KeyError on a
    # name that is missing there, even one no stage calls
    owner = importlib.import_module(f"kronstap.{module}")
    if "." in attr:
        cls, attr = attr.split(".")
        assert cls in vars(owner)
        owner = vars(owner)[cls]
    assert attr in vars(owner)


def _unused_imports(path):
    """Names a module imports, at any depth, and never reads; a name in
    its __all__ counts as read."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets):
            used |= {ast.literal_eval(elt) for elt in node.value.elts}
    return imported - used


def test_every_unused_import_is_a_tracer_target():
    # an import no code reads is dead unless the tracer swaps it there
    targets = {(module, attr) for module, attr, _ in _tracer_targets()}
    package = os.path.join(ROOT, "src", "kronstap")
    stale = [(name[:-3], attr) for name in sorted(os.listdir(package))
             if name.endswith(".py")
             for attr in sorted(_unused_imports(os.path.join(package, name)))]
    assert stale, "the walk found no imports at all"
    assert [entry for entry in stale if entry not in targets] == []


def _opens(path):
    """Line numbers of the calls to open, the builtin or any module's."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "open"]


def test_only_formats_opens_files():
    # every file a stage reads or writes goes through formats, which
    # knows its layout and checks it
    package = os.path.join(ROOT, "src", "kronstap")
    opens = {name: _opens(os.path.join(package, name))
             for name in sorted(os.listdir(package)) if name.endswith(".py")}
    assert opens.pop("formats.py"), "the walk found no open call at all"
    assert {name: lines for name, lines in opens.items() if lines} == {}
