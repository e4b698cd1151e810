"""Dead-API guard: every exported name has a caller outside the tests."""

import pathlib
import re

import mlpicard

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_exported_name_is_used_outside_tests():
    # A use is any mention of the name in package, demo or benchmark code
    # other than the line that defines it; the re-exports do not count.
    sources = [path.read_text(encoding="utf-8")
               for folder in ("src", "demos", "bench")
               for path in sorted((ROOT / folder).rglob("*.py"))
               if path.name != "__init__.py"]
    unused = []
    for name in mlpicard.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not definition.match(line)
                   for text in sources for line in text.splitlines()):
            unused.append(name)
    assert not unused, f"exported but used only by tests: {unused}"
