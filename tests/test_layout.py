"""Every public top-level function and class of the package has a caller in
the program: a reference outside its own definition somewhere in `src/`, or
its name in `perfbench/`, whose tracer looks the layers up by name.  A public
function that only the tests call is a second API; its independent
derivation belongs in the tests, as an oracle."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hodgeflow"

# The paper's quantities, kept in the library without a caller in the
# program, and the snapshot reader that resuming a run needs.
ALLOWED = {"isotopy_path", "isotopy_min_u", "sobolev_poincare_ratio",
           "jk_quantities", "snapshot_read"}


def _used_names(node) -> set:
    """Every name that `node` reads, bare or as an attribute."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def _public_definitions_and_uses():
    """({(module, name)} of the public top-level defs, {(module, owner):
    names used}), with owner the top-level def a statement belongs to, or
    None for module-level code."""
    defined, uses = set(), {}
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owner = stmt.name
                if not owner.startswith("_"):
                    defined.add((path.stem, owner))
            uses.setdefault((path.stem, owner), set()).update(_used_names(stmt))
    return defined, uses


def test_every_public_definition_has_a_caller():
    defined, uses = _public_definitions_and_uses()
    assert ALLOWED <= {name for _, name in defined}, "stale allowlist entry"
    perfbench = "\n".join(p.read_text()
                          for p in sorted((ROOT / "perfbench").glob("*.py")))
    uncalled = sorted(
        f"{module}.{name}" for module, name in defined
        if name not in ALLOWED
        and not any(name in names for where, names in uses.items()
                    if where != (module, name))
        and not re.search(rf"\b{name}\b", perfbench))
    assert not uncalled, ("public names with no caller in src/ or perfbench/: "
                          + ", ".join(uncalled))

