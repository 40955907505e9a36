"""Each decision of the package has one owner module.

``spectral`` owns every transform of the grid, so numpy's FFT appears
nowhere else but in ``levy._cheb_coefficients`` (a Chebyshev fit, not a grid
transform).  ``levy`` owns every integral of a jump law and ``quadrature``
the Gauss-Kronrod rule and its policy, so no other module names
``_integral``, ``integrate_scaled``, ``try_integrate`` or
``integrate_pieces``, and no module of the package names
``scipy.integrate``.  Within ``levy``, only the quadrature record
``_QuadLaw`` reaches the rule, adaptive or on its fixed panels and
oscillatory tails: the shared base ``_Law`` and the closed-form, table and
zero records name none of their entry points.
The closed forms, the stable and zero records, a density's profile and the
stable constant c(d, alpha), call neither ``_special`` nor anything of
``quadrature``, so a run on them loads no SciPy and integrates nothing.  No
jumps is the zero law's record, not a case: only ``LevyTriplet`` (which holds
the zero density for nu = None), ``_law``, the config rules and the config's
reading of a JSON null test whether a nu is None.  And the package holds
only what something reaches: a runner or other package code, an acceptance
criterion, the benchmark or one of the two entry points.  Read from the
source tree.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "levylab"
PERFBENCH = TESTS.parent / "perfbench"
INTEGRALS = {"_integral", "integrate_scaled", "try_integrate", "integrate_pieces"}
QUADRATURE_RULE = {"integrate_scaled", "try_integrate", "integrate_pieces", "_gk_nodes",
                   "_gk_sum", "_gated", "_oscillatory_tail", "_tail_zeros", "_head_edges"}


def _modules():
    return {p.name: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(SRC.glob("*.py"))}


def _spelled(tree):
    """(line, name) for every name the code spells: variables, attributes,
    definitions and each dotted part of an import; docstrings are not code."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            dotted = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            for part in ".".join(dotted).split("."):
                yield node.lineno, part


def test_the_source_tree_is_found():
    assert {"spectral.py", "levy.py", "quadrature.py", "fokker_planck.py"} <= set(
        _modules())


def test_only_spectral_transforms_the_grid():
    modules = _modules()
    [cheb] = [n for n in ast.walk(modules["levy.py"])
              if isinstance(n, ast.FunctionDef) and n.name == "_cheb_coefficients"]
    found = [(name, line) for name, tree in modules.items() if name != "spectral.py"
             for line, spelled in _spelled(tree) if spelled == "fft"
             and not (name == "levy.py" and cheb.lineno <= line <= cheb.end_lineno)]
    assert not found, f"numpy's FFT outside spectral at {found}"


def test_only_the_law_record_integrates():
    found = [(name, spelled) for name, tree in _modules().items()
             if name not in ("levy.py", "quadrature.py")
             for _, spelled in _spelled(tree) if spelled in INTEGRALS]
    assert not found, f"a law integrated outside levy at {found}"


def test_only_the_quadrature_record_reaches_quadpack():
    classes = {node.name: node for node in ast.walk(_modules()["levy.py"])
               if isinstance(node, ast.ClassDef)}
    found = [(name, spelled, line)
             for name in ("_Law", "_TableLaw", "_StableLaw", "_NoJumps")
             for line, spelled in _spelled(classes[name]) if spelled in QUADRATURE_RULE]
    assert not found, f"the quadrature rule named by a record that must not run it: {found}"


def _imported(tree):
    """The dotted module of every import, with each name it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from (f"{node.module}.{a.name}" for a in node.names)


def test_no_module_names_scipy_integrate():
    # QUADPACK is a test oracle only: the package's one quadrature rule is
    # its own, so no module imports scipy.integrate, nor spells it
    found = [(name, dotted) for name, tree in _modules().items()
             for dotted in _imported(tree) if dotted.startswith("scipy.integrate")]
    found += [(name, node.lineno) for name, tree in _modules().items()
              for node in ast.walk(tree) if isinstance(node, ast.Attribute)
              and node.attr == "integrate" and getattr(node.value, "id", None) == "scipy"]
    assert not found, f"scipy.integrate named at {found}"


def _called(node):
    """The names that the calls under node call: f(...) and x.f(...)."""
    for n in ast.walk(node):
        if isinstance(n, ast.Call):
            yield getattr(n.func, "id", getattr(n.func, "attr", None))


def test_closed_forms_reach_no_scipy():
    tree = _modules()["levy.py"]
    top = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    # _special, what levy takes from quadrature, and every top-level function
    # of levy that calls one of them, however indirectly: the closed forms
    # neither load SciPy nor integrate
    scipy = {"_special"} | {a.asname or a.name for n in tree.body
                            if isinstance(n, ast.ImportFrom) and n.module == "quadrature"
                            for a in n.names}
    while True:
        wider = scipy | {name for name, n in top.items()
                         if isinstance(n, ast.FunctionDef) and scipy & set(_called(n))}
        if wider == scipy:
            break
        scipy = wider
    assert {"_j0", "_kernel", "_aux_fg", "_tail_zeros", "integrate_scaled"} <= scipy
    [profile] = [n for n in top["LevyDensity"].body
                 if isinstance(n, ast.FunctionDef) and n.name == "profile"]
    found = [(name, called) for name, node in [
        ("_StableLaw", top["_StableLaw"]), ("_NoJumps", top["_NoJumps"]),
        ("LevyDensity.profile", profile),
        ("_stable_norm_constant", top["_stable_norm_constant"])]
        for called in _called(node) if called in scipy]
    assert not found, f"a closed form calls into scipy: {found}"


# (module, top-level definition) where a nu may be tested against None
NU_IS_NONE = {("levy.py", "LevyTriplet"), ("levy.py", "_law"), ("cli.py", "RULES"),
              ("cli.py", "_triplet")}


def _nu(node):
    return (isinstance(node, ast.Name) and node.id == "nu"
            or isinstance(node, ast.Attribute) and node.attr == "nu")


def _top_level_name(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return ",".join(t.id for t in targets if isinstance(t, ast.Name))


def test_only_the_triplet_and_the_config_ask_whether_nu_is_none():
    found = []
    for module, tree in _modules().items():
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Compare)
                        and all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                        and any(_nu(x) for x in [node.left, *node.comparators])
                        and any(isinstance(x, ast.Constant) and x.value is None
                                for x in node.comparators)):
                    found.append((module, _top_level_name(top), node.lineno))
    stray = [f for f in found if f[:2] not in NU_IS_NONE]
    assert not stray, f"a reader branches on nu is None at {stray}"
    assert {f[:2] for f in found} >= {("levy.py", "LevyTriplet"), ("cli.py", "_triplet")}


# the console script of pyproject.toml, and README's documented triplet reader
ENTRY_POINTS = {"cli.main", "cli.triplet_from_config"}


def _definitions(tree):
    """(qualified name, node) for every top-level function and class, and
    every public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{m.name}", m) for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))


def _used(tree):
    """(line, name) for every variable and attribute the code spells; a
    definition or an import alone (such as ``__init__``'s re-exports) is no
    use, and docstrings are not code."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr


def test_every_definition_is_reached():
    # reached: spelled by package code outside the definition itself or by an
    # acceptance criterion, or spelled or named as a string by the benchmark,
    # which looks its targets up by name; Grid.forward, Grid.inverse,
    # SpectralField.coefficients and jump_symbol stay for the benchmark alone
    uses = {}
    for module, tree in _modules().items():
        for line, name in _used(tree):
            uses.setdefault(name, []).append((module, line))
    criteria = {name for _, name in _used(ast.parse(
        (TESTS / "test_acceptance.py").read_text()))}
    bench = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        bench |= {name for _, name in _spelled(tree)}
        bench |= {n.value for n in ast.walk(tree)
                  if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    unreached = []
    for module, tree in _modules().items():
        for qualified, node in _definitions(tree):
            name = qualified.rpartition(".")[2]
            own = range(node.lineno, node.end_lineno + 1)
            if not (any(m != module or line not in own for m, line in uses.get(name, ()))
                    or name in criteria or name in bench
                    or f"{module[:-3]}.{qualified}" in ENTRY_POINTS):
                unreached.append(f"{module[:-3]}.{qualified}")
    assert not unreached, f"reached by no run, criterion or benchmark: {unreached}"
