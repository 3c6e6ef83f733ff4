"""Every module-level function and class of the library is used by the
library or the benchmark harness, not only by the tests."""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _references(node):
    """Identifiers that ``node`` names: names, attributes, imported names,
    and each part of a string constant that is a dotted identifier (the
    entries of ``__all__``, the tracer's targets such as
    ``"BlockJacobi.apply"``)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and DOTTED.fullmatch(sub.value)):
            yield from sub.value.split(".")


def test_no_module_level_name_is_used_only_by_tests():
    library = sorted((ROOT / "src" / "polystress").glob("*.py"))
    defined, used = [], set()
    for path in library + sorted((ROOT / "perfbench").glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            refs = set(_references(stmt))
            if path in library and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append(f"{path.stem}.{stmt.name}")
                # a definition's references to itself do not keep it alive
                refs.discard(stmt.name)
            used |= refs
    dead = [name for name in defined if name.split(".")[1] not in used]
    assert not dead, f"used nowhere in src/polystress or perfbench: {dead}"
