"""README.md's one Python example runs as written against the package's
imports, and the names its prose cites exist."""

import builtins
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import entwatch
from entwatch.detector import RANSOMWARE

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_surface_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, "README.md should hold exactly one python block"
    namespace: dict = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    result = namespace["result"]
    assert result.verdict == RANSOMWARE
    assert result.alerts


def entwatch_modules() -> dict:
    """The package and each of its modules, by the name the README cites them by."""
    modules = {"entwatch": entwatch}
    for info in pkgutil.iter_modules(entwatch.__path__):
        if not info.name.startswith("_"):  # __main__ runs the CLI when imported
            modules[info.name] = importlib.import_module(f"entwatch.{info.name}")
    return modules


def test_cited_names_exist():
    """Each backticked ``module.attr`` of an entwatch module resolves, and each
    backticked ``name(`` is a name on ``entwatch``, on one of its modules or
    on a class defined in them, or a builtin. File names such as
    ``metrics.json`` are not names."""
    text = README.read_text(encoding="utf-8")
    prose = re.sub(r"^```.*?^```$", "", text, flags=re.MULTILINE | re.DOTALL)
    spans = re.findall(r"`([^`]+)`", prose)
    modules = entwatch_modules()

    dotted = [m.groups() for m in (re.match(r"([A-Za-z_]\w*)\.([A-Za-z_]\w*)", s) for s in spans)
              if m and m.group(1) in modules and m.group(2) not in ("json", "jsonl", "csv")]
    assert dotted
    assert [f"{mod}.{attr}" for mod, attr in dotted if not hasattr(modules[mod], attr)] == []

    known = set(dir(builtins))
    for module in modules.values():
        known.update(dir(module))
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__.startswith("entwatch"):
                known.update(dir(cls))
    called = {name for s in spans for name in re.findall(r"(?<![\w.])([A-Za-z_]\w*)\(", s)}
    assert called
    assert sorted(called - known) == []
