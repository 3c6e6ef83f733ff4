"""The library holds only what the library or the benchmark harness reads.

Three kinds of names of ``src/polystress`` must each be used somewhere in
``src/polystress`` or ``perfbench/``, not only by the tests:

* every module-level function and class, referenced other than by its own
  definition;
* every method, property, dataclass field and ``self.`` attribute of a
  library class (dunders aside), read as an attribute other than where it
  is defined;
* every optional parameter of a library function, method or dataclass,
  passed by some call, by keyword or by position.

Imports and the strings of ``__all__`` do not count as uses; a string
constant that is a dotted identifier elsewhere does (the tracer's targets,
such as ``"BlockJacobi.apply"``, and ``getattr`` names).  The guard is
syntactic and matches members and calls by name alone, so a member read
under the same name on another class keeps it alive: a field ``name`` on
one dataclass would pass as long as ``Table.name`` is read.

``ALLOWED`` lists the names kept on purpose, each with its reason.  An
entry the guard no longer flags is stale and fails the test too.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")

ALLOWED = {
    "mesh.write_mesh": "writes the mesh-file format that --mesh-file reads; the "
                       "pinned mesh-family tests write through it",
    "krylov.CondEstimate.lam_min": "the estimate's smallest eigenvalue, which the "
                                   "effective-condition work reports",
    "krylov.CondEstimate.lam_max": "the estimate's largest eigenvalue, which the "
                                   "effective-condition work reports",
    "problems.manufacture": "the public path from a user's sympy field to its data, and "
                            "the symbolic reference of the named closed forms; the "
                            "named solutions no longer derive through it, so that no "
                            "run of the library or the CLI imports sympy",
    "problems.manufacture(mu=)": "the viscosity of a user's field; the tests pass it",
}


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _strings(node):
    """The parts of every dotted-identifier string constant under ``node``."""
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                and DOTTED.fullmatch(sub.value)):
            yield from sub.value.split(".")


def _names(node):
    """Names and attributes that ``node`` reads, and the parts of its dotted
    strings: the uses of a module-level name."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
    yield from _strings(node)


def _read_attributes(node):
    """Attributes that ``node`` reads (not assigns), and the parts of its
    dotted strings: the uses of a class member."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr
    yield from _strings(node)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any("dataclass" in ast.unparse(d) for d in cls.decorator_list)


def _optional(args: ast.arguments, skip: int):
    """(position or None, name) of every parameter with a default; positions
    count from the first argument a caller passes (``skip`` leading ones,
    ``self`` or ``cls``, dropped)."""
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, a in enumerate(positional):
        if i >= first:
            yield i - skip, a.arg
    for a, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, a.arg


def _definitions(module: str, tree: ast.Module):
    """Yield (kind, qualified name, callee, parameter) for every definition
    of one library module: kind "name" for a module-level function or class,
    "member" for a class member, "param" for an optional parameter, which
    ``callee`` (a function, method or class name) takes at
    ``parameter = (position or None, name)``."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            yield "name", f"{module}.{stmt.name}", stmt.name, None
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.FunctionDef):
                    for param in _optional(sub.args, 0):
                        yield "param", f"{module}.{sub.name}", sub.name, param
        elif isinstance(stmt, ast.ClassDef):
            yield "name", f"{module}.{stmt.name}", stmt.name, None
            yield from _class_definitions(f"{module}.{stmt.name}", stmt)


def _class_definitions(qual: str, cls: ast.ClassDef):
    dataclass = _is_dataclass(cls)
    fields = []
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef):
            static = any(ast.unparse(d) == "staticmethod" for d in stmt.decorator_list)
            if not (stmt.name.startswith("__") and stmt.name.endswith("__")):
                yield "member", f"{qual}.{stmt.name}", stmt.name, None
            callee = cls.name if stmt.name == "__init__" else stmt.name
            for param in _optional(stmt.args, 0 if static else 1):
                yield "param", f"{qual}.{stmt.name}", callee, param
            for sub in ast.walk(stmt):
                if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                    yield "member", f"{qual}.{sub.attr}", sub.attr, None
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            name = stmt.target.id
            yield "member", f"{qual}.{name}", name, None
            init = not (isinstance(stmt.value, ast.Call) and any(
                k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
                for k in stmt.value.keywords))
            if dataclass and init:
                if stmt.value is not None:
                    yield "param", qual, cls.name, (len(fields), name)
                fields.append(name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield "member", f"{qual}.{target.id}", target.id, None


def _callee(func) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _passed(node):
    """(callee, position or keyword) of every argument passed at a call
    under ``node``: the keyword is None for a ``**kwargs``, which passes
    them all, and positions after a ``*args`` are not counted.
    ``partial(f, ...)`` passes its arguments to ``f``."""
    for call in ast.walk(node):
        if not isinstance(call, ast.Call):
            continue
        callee, args = _callee(call.func), call.args
        if callee == "partial" and args:
            callee, args = _callee(args[0]), args[1:]
        for i, arg in enumerate(args):
            if isinstance(arg, ast.Starred):
                break
            yield callee, i
        for kw in call.keywords:
            yield callee, kw.arg


def _sources(library: dict, clients: dict):
    """Parsed (module, tree, is_library) of ``{path: source text}`` maps."""
    for sources, is_library in ((library, True), (clients, False)):
        for path, text in sorted(sources.items()):
            yield Path(path).stem, ast.parse(text, str(path)), is_library


def flagged(library: dict, clients: dict) -> set:
    """The qualified names of ``library`` that neither it nor ``clients``
    use, both ``{path: source text}``; an optional parameter is named
    ``module.function(name=)``."""
    definitions, names, members, passes = [], set(), set(), {}
    for module, tree, is_library in _sources(library, clients):
        if is_library and module == "__init__":
            continue  # re-exports are not uses
        if is_library:
            definitions += _definitions(module, tree)
        for stmt in tree.body:
            if _is_all(stmt):
                continue
            used = set(_names(stmt))
            if is_library and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                used.discard(stmt.name)  # a definition's references to itself
            names |= used
            members.update(_read_attributes(stmt))
            for callee, passed in _passed(stmt):
                passes.setdefault(callee, set()).add(passed)
    dead = set()
    for kind, qual, callee, param in definitions:
        if kind == "name" and callee not in names:
            dead.add(qual)
        elif kind == "member" and callee not in members:
            dead.add(qual)
        elif kind == "param":
            position, name = param
            # by keyword, by position, or through a **kwargs (keyword None)
            if not passes.get(callee, set()) & {name, position, None}:
                dead.add(f"{qual}({name}=)")
    return dead


def _tree(*parts) -> dict:
    return {path: path.read_text()
            for path in sorted((ROOT.joinpath(*parts)).glob("*.py"))}


def test_library_holds_only_what_library_or_benchmark_reads():
    found = flagged(_tree("src", "polystress"), _tree("perfbench"))
    unused = sorted(found - set(ALLOWED))
    stale = sorted(set(ALLOWED) - found)
    assert not unused, f"used nowhere in src/polystress or perfbench: {unused}"
    assert not stale, f"ALLOWED entries no longer flagged (remove them): {stale}"
    assert all(reason.strip() for reason in ALLOWED.values())


LIBRARY = '''
__all__ = ["helper", "Box"]

def helper(x, scale=1.0, *, shift=0.0):
    return x

def used(x, y=0):
    return Box(x).size

class Box:
    def __init__(self, size, label=None):
        self.size = size
        self.label = label

    def grow(self):
        return self.size
'''


def test_guard_flags_each_kind_of_unused_name():
    """Only ``__all__`` names ``helper``: it, its optional parameters, the
    unread member and method and the unpassed parameters are flagged."""
    client = "from mod import used\nused(1)\n"
    assert flagged({"mod.py": LIBRARY}, {"client.py": client}) == {
        "mod.helper", "mod.helper(scale=)", "mod.helper(shift=)",
        "mod.used(y=)", "mod.Box.__init__(label=)", "mod.Box.label", "mod.Box.grow"}
    client = ("from mod import Box, helper, used\n"
              "used(1, 2); helper(0, 2, shift=1); Box(1, 'a').grow().label\n")
    assert flagged({"mod.py": LIBRARY}, {"client.py": client}) == set()
