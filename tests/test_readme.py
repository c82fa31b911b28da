"""The README's documented library surface: it runs, and it lists the exports."""

import pathlib
import re
import types

import slespec as S

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_library_quick_start_runs():
    section = README.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md quick start", "exec"), {})


def test_readme_lists_every_export_by_module():
    line = next(ln for ln in README.splitlines() if ln.startswith("Exports by module"))
    listed = {m: set(names.split(", ")) for m, names in re.findall(r"`(\w+)`: ([\w, ]+)", line)}
    exported = {}
    for name, value in vars(S).items():
        if not name.startswith("_") and not isinstance(value, types.ModuleType):
            exported.setdefault(value.__module__.split(".")[-1], set()).add(name)
    assert listed == exported
