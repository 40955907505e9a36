"""Each decision of the package has one owner module.

``spectral`` owns every transform of the grid, so numpy's FFT appears
nowhere else but in ``levy._cheb_coefficients`` (a Chebyshev fit, not a grid
transform).  ``levy`` owns every integral of a jump law and ``quadrature``
the QUADPACK policy, so no other module names ``_integral``,
``integrate_scaled`` or ``try_integrate``.  Within ``levy``, only the
QUADPACK record ``_QuadLaw`` reaches QUADPACK: the shared base ``_Law`` and
the closed-form and table records name none of its entry points.  Read from
the source tree.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "levylab"
INTEGRALS = {"_integral", "integrate_scaled", "try_integrate"}
QUADPACK = {"integrate_scaled", "try_integrate", "_segmented_tail", "_j0_tail",
            "_cos_tail"}


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
    found = [(name, spelled, line) for name in ("_Law", "_TableLaw", "_StableLaw")
             for line, spelled in _spelled(classes[name]) if spelled in QUADPACK]
    assert not found, f"QUADPACK named by a record that must not run it: {found}"
