"""Dead-API guard: every package definition has a caller outside the tests,
and every defaulted parameter a call there that passes it."""

import ast
import math
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


def defaulted_params(text):
    # (label, parameter, positions) of each defaulted parameter of a public
    # module-level function or a public method: positions is how many
    # positional arguments a call must pass to reach it (None if it is
    # keyword-only; a method's self is not counted)
    for node in ast.parse(text).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield from _defaulted(node, node.name, 0)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    static = any(isinstance(dec, ast.Name)
                                 and dec.id == "staticmethod"
                                 for dec in item.decorator_list)
                    yield from _defaulted(item, f"{node.name}.{item.name}",
                                          0 if static else 1)


def _defaulted(fn, label, bound):
    args = fn.args
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield label, arg.arg, i + 1 - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield label, arg.arg, None


def passed_params(texts):
    # ({callable name: keyword names}, {callable name: most positional
    # arguments}) over the calls in texts; a starred argument counts as any
    # number of positional arguments and a ** argument as every keyword of
    # the callable it is passed to
    keywords, positions = {}, {}
    nodes = (node for text in texts for node in ast.walk(ast.parse(text)))
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name) else
                func.attr if isinstance(func, ast.Attribute) else None)
        keywords.setdefault(name, set()).update(
            kw.arg or "**" for kw in node.keywords)
        count = (math.inf if any(isinstance(arg, ast.Starred)
                                 for arg in node.args) else len(node.args))
        positions[name] = max(positions.get(name, 0), count)
    return keywords, positions


def _passes(passed, label, param, positions):
    # a call passes param when it passes the callable of label's name param
    # as a keyword, or at least positions positional arguments
    keywords, most = passed
    name = label.rsplit(".", 1)[-1]
    named = keywords.get(name, set())
    return (param in named or "**" in named
            or (positions is not None and most.get(name, 0) >= positions))


def test_every_defaulted_parameter_is_passed_outside_tests():
    # a default that no package, demo or benchmark call overrides is an
    # option only the tests use
    passed = passed_params(_sources("src", "demos", "bench"))
    unused = [f"{label}({param}=)" for text in _sources("src")
              for label, param, positions in defaulted_params(text)
              if not _passes(passed, label, param, positions)]
    assert not unused, f"defaulted parameters only tests pass: {unused}"


def test_defaulted_parameters_are_passed_by_keyword_or_position():
    text = ("def alpha(x, y=1, *, z=2):\n"
            "    pass\n"
            "class Beta:\n"
            "    def gamma(self, u, v=0):\n"
            "        pass\n"
            "    @staticmethod\n"
            "    def delta(w=0):\n"
            "        pass\n")
    assert list(defaulted_params(text)) == [
        ("alpha", "y", 2), ("alpha", "z", None), ("Beta.gamma", "v", 2),
        ("Beta.delta", "w", 1)]
    passed = passed_params(["alpha(1, z=3)\nb.gamma(1, 2)\n", "f(*ws)\n"])
    assert not _passes(passed, "alpha", "y", 2)
    assert _passes(passed, "alpha", "z", None)
    assert _passes(passed, "Beta.gamma", "v", 2)
    assert not _passes(passed, "Beta.delta", "w", 1)
    assert _passes(passed_params(["delta(*ws)"]), "Beta.delta", "w", 1)
    assert not _passes(passed_params(["other(z=3)"]), "alpha", "z", None)
    assert _passes(passed_params(["alpha(**kw)"]), "alpha", "y", 2)
    assert not _passes(passed_params(["g(**kw)"]), "alpha", "y", 2)


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


def unread_params(text):
    # (label, parameter) of each parameter of a private module-level
    # function or of a method (self and cls aside) that its body never
    # reads; a read in a nested closure counts, but the closure's own
    # parameters are not checked: the builtins' eval callables take the
    # protocol's (t, x, u) whether or not they read them
    for node in ast.parse(text).body:
        functions = []
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
            functions.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            functions += [(f"{node.name}.{item.name}", item)
                          for item in node.body
                          if isinstance(item, ast.FunctionDef)]
        for label, fn in functions:
            args = fn.args
            read = {name.id for stmt in fn.body for name in ast.walk(stmt)
                    if isinstance(name, ast.Name)
                    and isinstance(name.ctx, ast.Load)}
            yield from ((label, arg.arg)
                        for arg in (*args.posonlyargs, *args.args,
                                    *args.kwonlyargs, args.vararg, args.kwarg)
                        if arg is not None and arg.arg not in ("self", "cls")
                        and arg.arg not in read)


def test_every_parameter_of_a_private_function_or_method_is_read():
    unread = [f"{label}.{param}" for text in _sources("src")
              for label, param in unread_params(text)]
    assert not unread, f"parameters no body reads: {unread}"


def test_unread_params_checks_private_functions_and_methods_only():
    text = ("def alpha(x):\n"
            "    pass\n"
            "def _beta(x, y, *rest, key):\n"
            "    def inner(t, u):\n"
            "        return y\n"
            "    x = 1\n"
            "    return inner, rest\n"
            "class Gamma:\n"
            "    def delta(self, v):\n"
            "        return self\n"
            "    @classmethod\n"
            "    def _eta(cls, w):\n"
            "        return w\n")
    assert list(unread_params(text)) == [
        ("_beta", "x"), ("_beta", "key"), ("Gamma.delta", "v")]
