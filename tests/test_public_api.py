"""Dead-API guard: every exported name has a caller outside the tests."""

import io
import pathlib
import tokenize

import mlpicard

ROOT = pathlib.Path(__file__).resolve().parent.parent


def used_names(text):
    # Python name tokens of the code: strings and comments are tokens of
    # their own, so a name that only a message or a comment mentions is no
    # use; neither is the name that a def or class line gives
    names, previous = set(), None
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.NAME and previous not in ("def", "class"):
            names.add(token.string)
        previous = token.string
    return names


def test_every_exported_name_is_used_outside_tests():
    # package, demo and benchmark code count; the re-exports do not
    used = set().union(*(used_names(path.read_text(encoding="utf-8"))
                         for folder in ("src", "demos", "bench")
                         for path in sorted((ROOT / folder).rglob("*.py"))
                         if path.name != "__init__.py"))
    unused = [name for name in mlpicard.__all__ if name not in used]
    assert not unused, f"exported but used only by tests: {unused}"


def test_names_in_strings_comments_and_definitions_are_not_uses():
    text = ("def alpha(x):\n"
            "    raise ValueError('alpha needs beta')  # gamma\n"
            "class Delta(Base):\n"
            "    pass\n")
    names = used_names(text)
    assert {"x", "ValueError", "Base"} <= names
    assert not {"alpha", "beta", "gamma", "Delta"} & names
