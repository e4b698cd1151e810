"""Dead-API guard: every package definition has a caller outside the tests."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _annotations(tree):
    # parameter, return and variable annotations
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(text):
    # names the code reads: Name and Attribute nodes and keyword-argument
    # names, f-string expressions included.  Strings and comments are no
    # use, and neither is a name that a def, class or parameter gives, nor
    # one that only annotates: a type no code builds or reads is dead
    tree = ast.parse(text)
    skipped = {id(node) for annotation in _annotations(tree)
               for node in ast.walk(annotation)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            names.add(node.arg)
    return names


def defined_names(text):
    # (label, name) of each module-level def and class, and of each public
    # method of those classes
    for node in ast.parse(text).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item.name)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_"))


def _sources(*folders):
    return [path.read_text(encoding="utf-8")
            for folder in folders
            for path in sorted((ROOT / folder).rglob("*.py"))]


def test_every_exported_name_is_used_outside_tests():
    # package, demo and benchmark code count
    used = set().union(*map(used_names, _sources("src", "demos", "bench")))
    unused = [label for text in _sources("src")
              for label, name in defined_names(text) if name not in used]
    assert not unused, f"defined but used only by tests: {unused}"


def test_package_init_is_its_docstring_alone():
    # each name has one import path, its module: the package re-exports
    # nothing, so no list of names there can go stale
    tree = ast.parse((ROOT / "src" / "mlpicard" / "__init__.py")
                     .read_text(encoding="utf-8"))
    assert ast.get_docstring(tree) and len(tree.body) == 1


def test_names_in_strings_comments_and_definitions_are_not_uses():
    text = ("def alpha(x: Nu) -> Xi:\n"
            "    raise ValueError('alpha needs beta')  # gamma\n"
            "class Delta(Base):\n"
            "    rho: Sigma = tau\n"
            "    def eta(self, *a: np.Pi, **k: Phi):\n"
            "        return f'{theta.iota!r} kappa' + lam(mu=1)\n")
    names = used_names(text)
    assert {"ValueError", "Base", "theta", "iota", "lam", "mu", "tau"} <= names
    assert not {"alpha", "x", "beta", "gamma", "Delta", "eta", "kappa", "Nu",
                "Xi", "Sigma", "np", "Pi", "Phi"} & names
    assert list(defined_names(text)) == [("alpha", "alpha"), ("Delta", "Delta"),
                                         ("Delta.eta", "eta")]
