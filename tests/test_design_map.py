"""DESIGN.md §3's module map names every module of ``src/repro``, once.

The map is the code block under "System inventory (module map)": a
package at two spaces (``common/``), its modules at four, the package
root's ``__init__.py`` at two; longer indents continue a description.
Modules are matched per package (``record.py``, ``executor.py`` and
``manifest.py`` each exist twice); a package's ``__init__.py`` needs no
line.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def mapped() -> list[str]:
    """Every module the map lists, as a path under ``src/repro``."""
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    block = design.split("System inventory (module map)", 1)[1].split("```", 2)[1]
    entries, package = [], None
    for line in block.splitlines():
        found = re.match(r"( *)(\S+)", line)
        if not found:
            continue
        indent, name = len(found.group(1)), found.group(2)
        if indent == 2 and name.endswith("/"):
            package = name[:-1]
        elif indent == 2 and name.endswith(".py"):
            entries.append(name)
        elif indent == 4 and name.endswith(".py"):
            entries.append(f"{package}/{name}")
    return entries


def modules() -> set[str]:
    paths = (path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py"))
    return {path for path in paths if path == "__init__.py" or not path.endswith("/__init__.py")}


def test_every_module_has_one_line_in_the_map():
    entries = mapped()
    assert sorted(modules() - set(entries)) == []
    assert sorted({entry for entry in entries if entries.count(entry) > 1}) == []


def test_every_file_the_map_names_exists():
    assert sorted(set(mapped()) - modules()) == []
