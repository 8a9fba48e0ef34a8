"""Every def and class in src/laxlab is reached from a laxlab command.

A name-level call graph, built from the source with ``ast``: a def reaches
every def whose name it mentions, as a bare name or as an attribute.  A
nested def is reached only through the defs that enclose it; module-level
defs and methods are reached by name from anywhere.  The roots are
``cli.main``, every module's own top-level statements (imports aside: a
re-export reaches nothing) and the REFERENCES below.  A reached class
reaches its dunder methods and CALLBACKS, which Python or the standard
library call for it.  Name-level matching over-approximates the real
graph, so a def this test calls unreached is unreached for certain.

The same walk backs a knob lint: every default parameter of a def must
be passed, by keyword or by position, by some call in src/, tests/ or
perfbench/; a default that nothing overrides is a constant.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "laxlab"
CALLERS = ("src", "tests", "perfbench")

# Kept although no command reaches them: each is the reference a test
# compares the library against, or a name the benchmark tracer lists.
REFERENCES = {
    # the scalar Airy routine behind the vectorised airy_ai_vec
    "mathcore.special.airy_ai",
    "mathcore.special.airy_ai_prime",
    # aci_flow's right-hand side, written out once
    "aci.b_from_a",
    # finite differences for the exact jets; perfbench/tracer.py lists fd
    "fd.central_diff",
}

# methods that Python or the standard library call on a reached class
CALLBACKS = {"cli._Parser.error"}

ROOT = "cli.main"


class _Def:
    def __init__(self, qualname, node, parent):
        self.qualname = qualname
        self.node = node
        self.parent = parent  # the enclosing _Def, or None at module level
        self.names = set()  # identifiers its own code mentions
        self.children = {}  # name -> nested _Def (functions and classes)
        self.methods = []  # for a class: its method _Defs


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _header(stmt):
    """The decorators, bases and defaults of a def or class."""
    if isinstance(stmt, ast.ClassDef):
        return [*stmt.decorator_list, *stmt.bases, *stmt.keywords]
    return [*stmt.decorator_list, *stmt.args.defaults,
            *(d for d in stmt.args.kw_defaults if d is not None)]


def _mentions(nodes):
    """Names and attribute names mentioned in the nodes, not descending
    into nested defs or classes: those are graph nodes of their own."""
    out = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, _DEFS):
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _sources():
    """(module name relative to laxlab, source text) of every file."""
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield ".".join(parts), path.read_text()


def _collect(sources):
    """(every _Def by qualname, root names of the module-level code)."""
    defs, top_level = {}, set()

    def visit(body, prefix, parent, owner_class=None):
        for stmt in body:
            if not isinstance(stmt, _DEFS):
                continue
            d = _Def(f"{prefix}.{stmt.name}", stmt, parent)
            defs[d.qualname] = d
            if owner_class is not None:
                owner_class.methods.append(d)
            elif parent is not None:
                parent.children[stmt.name] = d
            is_class = isinstance(stmt, ast.ClassDef)
            d.names = _mentions([*_header(stmt), *stmt.body])
            visit(stmt.body, d.qualname, d, d if is_class else None)

    for module, text in sources:
        tree = ast.parse(text)
        top_level |= _mentions(
            s for s in tree.body
            if not isinstance(s, (ast.Import, ast.ImportFrom, *_DEFS)))
        visit(tree.body, module, None)
    return defs, top_level


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _reached(defs, top_level, extra_roots=()):
    """The qualnames reached from cli.main, the module-level code and
    extra_roots."""
    # module-level defs and methods answer to their bare name from anywhere
    by_name = {}
    for d in defs.values():
        if d.parent is None or isinstance(d.parent.node, ast.ClassDef):
            by_name.setdefault(d.node.name, []).append(d)

    reached, todo = set(), [defs[ROOT], *(defs[q] for q in extra_roots)]

    def mention(names, scope):
        for name in names:
            todo.extend(by_name.get(name, ()))
            s = scope
            while s is not None:  # a nested def, seen from the defs around it
                if name in s.children:
                    todo.append(s.children[name])
                s = s.parent

    mention(top_level, None)
    while todo:
        d = todo.pop()
        if d.qualname in reached:
            continue
        reached.add(d.qualname)
        mention(d.names, d)
        for m in d.methods:  # called by Python or the standard library
            if _is_dunder(m.node.name) or m.qualname in CALLBACKS:
                todo.append(m)
    return reached


def _exempt(d):
    return _is_dunder(d.node.name) or d.qualname in CALLBACKS


def test_every_def_is_reached_from_a_command():
    defs, top_level = _collect(_sources())
    reached = _reached(defs, top_level, REFERENCES)
    unreached = sorted(q for q, d in defs.items()
                       if q not in reached and not _exempt(d))
    assert unreached == []


def test_references_exist_and_no_command_reaches_them():
    """REFERENCES names real defs, and only ones that need listing."""
    defs, top_level = _collect(_sources())
    assert REFERENCES | CALLBACKS <= set(defs)
    assert not REFERENCES & _reached(defs, top_level)


def test_the_graph_sees_calls():
    """The root reaches what it names, through nested defs, attribute
    calls, base classes and module-level code; a def or class nobody names
    stays unreached, and so does a nested def of an unreached def."""
    defs, top_level = _collect([("cli", (
        "def main():\n"
        "    def inner():\n"
        "        return helper()\n"
        "    return inner()\n"
        "def helper():\n"
        "    return obj.method()\n"
        "def orphan():\n"
        "    def inner():\n"
        "        pass\n"
        "class Base:\n"
        "    pass\n"
        "class K(Base):\n"
        "    def method(self):\n"
        "        pass\n"
        "    def __init__(self):\n"
        "        pass\n"
        "LIMIT = limit(K)\n"
        "def limit():\n"
        "    pass\n"
    ))])
    assert _reached(defs, top_level) == {
        "cli.main", "cli.main.inner", "cli.helper", "cli.K.method",
        "cli.limit", "cli.K", "cli.K.__init__", "cli.Base"}


# ----- knob lint -----

def _calls(texts):
    """Call name -> (positional count, keyword names, starred) of every
    call in the source texts, by the name of a bare or attribute callee."""
    calls = {}
    for text in texts:
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            starred = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            calls.setdefault(name, []).append(
                (len(node.args), {k.arg for k in node.keywords}, starred))
    return calls


def _unset_defaults(defs, calls):
    """'qualname:parameter' of every default parameter that no call
    passes.  A call passes a parameter by keyword, by position (a method's
    positions skip self; __init__ answers to its class's name), or by
    unpacking * or ** arguments, which passes all."""
    unset = []
    for d in defs.values():
        if isinstance(d.node, ast.ClassDef):
            continue
        args = d.node.args
        pos = [*args.posonlyargs, *args.args]
        method = (d.parent is not None
                  and isinstance(d.parent.node, ast.ClassDef)
                  and not any(getattr(x, "id", None) == "staticmethod"
                              for x in d.node.decorator_list))
        name = d.node.name
        if method and name == "__init__":
            name = d.parent.node.name
        first = len(pos) - len(args.defaults)
        knobs = [(a.arg, i - method) for i, a in enumerate(pos) if i >= first]
        knobs += [(a.arg, None) for a, default in
                  zip(args.kwonlyargs, args.kw_defaults) if default is not None]
        for param, index in knobs:
            if not any(starred or param in keywords
                       or (index is not None and npos > index)
                       for npos, keywords, starred in calls.get(name, ())):
                unset.append(f"{d.qualname}:{param}")
    return sorted(unset)


def test_every_default_parameter_is_passed_by_some_call():
    defs, _ = _collect(_sources())
    texts = (path.read_text() for top in CALLERS
             for path in sorted((REPO / top).rglob("*.py")))
    assert _unset_defaults(defs, _calls(texts)) == []


def test_the_knob_lint_sees_calls():
    """Keyword, positional (past self for a method or a class) and
    starred calls pass a default; nothing else does."""
    defs, _ = _collect([("m", (
        "def f(a, b=1, c=2, *, d=3):\n"
        "    pass\n"
        "def g(e=0):\n"
        "    pass\n"
        "class K:\n"
        "    def __init__(self, x=0):\n"
        "        pass\n"
        "    def method(self, y=0, z=0):\n"
        "        pass\n"
        "    @staticmethod\n"
        "    def static(u=0):\n"
        "        pass\n"
    ))])
    calls = _calls(["f(0, 1, d=4)\ng(*args)\nK(1)\nk.method(1)\n"
                    "K.static(1)\n"])
    assert _unset_defaults(defs, calls) == ["m.K.method:z", "m.f:c"]
