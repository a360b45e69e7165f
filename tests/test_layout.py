"""Checks on the package's source, made with `ast`.

Every public top-level function and class of the package, and every public
method of a public class, has a caller in the program: a reference outside
its own definition somewhere in `src/`, or its name in `perfbench/`, whose
tracer looks the layers up by name.  A public function that only the tests
call is a second API; its independent derivation belongs in the tests, as an
oracle.  The u-floor is read by one function only, no function takes the
floor or a record constant as a parameter, and no module imports a name it
never reads.  The pointwise inner product is written once, as `forms.dot`,
and the differentiation, exponential and band matrices are read by the one
derivative kernel, the one exponential and the one band transform pair."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hodgeflow"

# The snapshot reader that resuming a run needs.
ALLOWED = {"snapshot_read"}


def _name_counts(node) -> Counter:
    """How often `node` reads each name, bare or as an attribute."""
    counts = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            counts[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            counts[sub.attr] += 1
    return counts


def _perfbench_text() -> str:
    return "\n".join(p.read_text()
                     for p in sorted((ROOT / "perfbench").glob("*.py")))


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
            uses.setdefault((path.stem, owner), Counter()).update(
                _name_counts(stmt))
    return defined, uses


def test_every_public_definition_has_a_caller():
    defined, uses = _public_definitions_and_uses()
    assert ALLOWED <= {name for _, name in defined}, "stale allowlist entry"
    perfbench = _perfbench_text()
    uncalled = sorted(
        f"{module}.{name}" for module, name in defined
        if name not in ALLOWED
        and not any(name in names for where, names in uses.items()
                    if where != (module, name))
        and not re.search(rf"\b{name}\b", perfbench))
    assert not uncalled, ("public names with no caller in src/ or perfbench/: "
                          + ", ".join(uncalled))


def test_every_public_method_has_a_caller():
    trees = [ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))]
    total = sum((_name_counts(tree) for tree in trees), Counter())
    perfbench = _perfbench_text()
    uncalled = sorted(
        f"{cls.name}.{fn.name}" for tree in trees for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
        and total[fn.name] == _name_counts(fn)[fn.name]
        and not re.search(rf"\b{fn.name}\b", perfbench))
    assert not uncalled, ("public methods with no caller in src/ or "
                          "perfbench/: " + ", ".join(uncalled))


# Fixed values of the program, not settings: no function takes one.
FIXED = {"u_floor", "q1_weight", "monitor_a", "monitor_b", "safety"}


def test_the_floor_has_one_reader_and_no_parameter_carries_a_constant():
    # Tests move the floor with monkeypatch.setattr(forms, "U_FLOOR", x),
    # which only works while the floor check reads forms.U_FLOOR at call
    # time: a `from .forms import U_FLOOR` elsewhere would keep the old value.
    readers, carriers = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.stem == "forms":
            for stmt in tree.body:
                if (isinstance(stmt, ast.FunctionDef)
                        and stmt.name == "require_above_floor"):
                    allowed = {id(n) for n in ast.walk(stmt)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and node.id == "U_FLOOR"
                    and not isinstance(node.ctx, ast.Store)
                    or isinstance(node, ast.Attribute) and node.attr == "U_FLOOR"
                    or isinstance(node, ast.alias) and node.name == "U_FLOOR"):
                if id(node) not in allowed:
                    readers.append(f"{path.name}:{node.lineno}")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                args = node.args
                for arg in (args.posonlyargs + args.args + args.kwonlyargs):
                    if arg.arg in FIXED:
                        carriers.append(f"{path.name}:{arg.lineno} {arg.arg}")
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if (isinstance(stmt, ast.AnnAssign)
                            and isinstance(stmt.target, ast.Name)
                            and stmt.target.id in FIXED):
                        carriers.append(f"{path.name}:{stmt.lineno} "
                                        f"{stmt.target.id}")
    assert not readers, ("U_FLOOR read outside forms.require_above_floor: "
                         + ", ".join(readers))
    assert not carriers, ("parameters or fields carrying a fixed value: "
                          + ", ".join(carriers))


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}
    for node in tree.body:  # __all__ re-exports its names
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= {elt.value for elt in node.value.elts}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(imported.items()) if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = [entry for path in paths for entry in _unused_imports(path)]
    assert not unused, "imported and never read: " + ", ".join(unused)


def _fft_reads(path: Path) -> list:
    """Lines of `path` that read numpy's or scipy's fft module: an `.fft`
    attribute, or an import of or from a `fft` module."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and node.attr == "fft"
                or isinstance(node, ast.ImportFrom)
                and ((node.module or "").split(".")[-1] == "fft"
                     or any(a.name == "fft" for a in node.names))
                or isinstance(node, ast.Import)
                and any(a.name.split(".")[-1] == "fft" for a in node.names)):
            lines.add(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(lines)]


def test_only_grid_reads_the_fft_module():
    # transforms and wavenumber tables come from `grid`, so that every
    # spectral convention (Nyquist handling, layout, pruning) lives there
    reads = [entry for path in sorted(PACKAGE.glob("*.py"))
             if path.stem != "grid" for entry in _fft_reads(path)]
    assert not reads, "np.fft read outside grid: " + ", ".join(reads)


def _component_contractions(path: Path) -> list:
    """(line, enclosing top-level function) of each `einsum` call in `path`
    whose subscripts are "c...,c...->...", the pointwise inner product."""
    found = []
    for stmt in ast.parse(path.read_text()).body:
        for node in ast.walk(stmt):
            if not (isinstance(node, ast.Call) and node.args
                    and isinstance(node.args[0], ast.Constant)):
                continue
            name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            spec = str(node.args[0].value).replace(" ", "")
            if name == "einsum" and spec == "c...,c...->...":
                found.append((node.lineno, getattr(stmt, "name", None)))
    return found


def test_only_forms_dot_contracts_components():
    # the pointwise inner product sum_c x_c y_c is written once, as forms.dot
    sites = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line, owner in _component_contractions(path)
             if (path.stem, owner) != ("forms", "dot")]
    assert not sites, "inner product outside forms.dot: " + ", ".join(sites)


def _name_sites(name: str) -> list:
    """(module, enclosing top-level def or None, line) of each read or
    import of `name` in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            for node in ast.walk(stmt):
                hit = (isinstance(node, ast.Name) and node.id == name
                       or isinstance(node, ast.Attribute) and node.attr == name
                       or isinstance(node, ast.alias) and node.name == name)
                if hit:
                    found.append((path.stem, getattr(stmt, "name", None),
                                  getattr(node, "lineno", stmt.lineno)))
    return found


def test_only_deriv_values_reads_the_differentiation_matrices():
    # one spectral derivative kernel, one exponential and one band-limited
    # transform pair: the cached matrix grid._diff_matrix (and the negation
    # it caches from it) is read only inside grid.deriv_values,
    # grid._exp_matrix only inside grid.exp_values, and grid._band_matrices
    # only inside grid.band_spectrum and grid.from_band_spectrum, so every
    # caller goes through the kernels
    for matrix, kernels in (("_diff_matrix", ("deriv_values",)),
                            ("_exp_matrix", ("exp_values",)),
                            ("_band_matrices", ("band_spectrum",
                                                "from_band_spectrum"))):
        owners = {("grid", k) for k in kernels + (matrix,)}
        sites = [f"{module}.py:{line}" for module, owner, line
                 in _name_sites(matrix) if (module, owner) not in owners]
        assert not sites, (f"{matrix} read outside {', '.join(kernels)}: "
                           + ", ".join(sites))
        readers = {s[:2] for s in _name_sites(matrix)}
        assert all(("grid", k) in readers for k in kernels)
