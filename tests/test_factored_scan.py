"""Solver blocks are ``linalg.Factored``: no solver forms one densely on its own.

``maps``, ``dsm`` and ``pencil`` return every minimal mapping and eigenpair
block as thin factors, and a block is formed by ``Factored.dense`` only when
it is read.  The scan below keeps it that way: the old dense helpers
(``maps._outer_sum``, ``dsm._apply``) are gone, and no function of those
modules calls ``np.outer`` (or ``np.multiply.outer``) or multiplies stacked
factors (a product with an operand built by ``np.array``, ``np.stack``,
``np.hstack``, ``np.vstack``, ``np.column_stack`` or ``np.concatenate``),
except the functions of ``EXEMPT``: the characterizations, which evaluate a
dense free matrix K, and the small cores that are not blocks.
"""

import ast
import pathlib

import pytest

import dsmkit.dsm as dsm_mod
import dsmkit.maps as maps_mod

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dsmkit"
STACKING = {"array", "stack", "hstack", "vstack", "column_stack", "concatenate"}

#: the functions that may form a dense product, by module, each with the reason it may
EXEMPT = {
    "maps.py": {
        "_project": "P_v a: a rank-one update of a vector (O(n)) or of the dense K of a characterization",
        "_shifted_psd": "the shifted K of the dissipative characterization",
    },
    "dsm.py": {
        "_h2_tilde": "the column-block term of a characterization",
        "dsm_characterize_type2": "evaluates the rectangular dissipative characterization",
    },
    "pencil.py": {
        "_gen_rb": "the 2 x 2 cores X*Y of the eigenvector draws, not a block",
    },
}


def _np_call(node, names) -> bool:
    """``np.<name>(...)`` or ``np.<ufunc>.<name>(...)`` for a name in ``names``."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in names):
        return False
    owner = node.func.value
    while isinstance(owner, ast.Attribute):
        owner = owner.value
    return isinstance(owner, ast.Name) and owner.id == "np"


def _stacked(node) -> bool:
    """An operand built by a stacking call, possibly transposed, conjugated or indexed."""
    while True:
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in ("conj", "transpose"):
            node = node.func.value
        else:
            return _np_call(node, STACKING)


def _dense_products(tree, exempt=()) -> list[str]:
    """``name:line`` of every outer product and product of stacked factors outside the ``exempt`` functions."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name in exempt:
                return
            where = node.name
        if _np_call(node, {"outer"}) or (
            isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult) and (_stacked(node.left) or _stacked(node.right))
        ):
            found.append(f"{where}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


@pytest.mark.parametrize("source, found", [
    ("def f(a, b): return np.array(a).T @ np.array(b)", 1),
    ("def f(a, b): return np.outer(a, b)", 1),
    ("def f(v, a): return a - np.multiply.outer(v, v.conj() @ a)", 1),
    ("def f(g, u, a, b): return np.hstack([g, u]) @ np.vstack([a, b]).conj().T", 1),
    ("def f(f, c): return f @ c @ np.stack(f, axis=-1)[0]", 1),
    ("def f(g, u, a, b): return Factored(np.hstack([g, u]), np.vstack([a, b]).T)", 0),
    ("def f(v, a): return a - v * (v.conj() @ a)", 0),
    ("def f(a, b): return np.outer(a, b)\ndef g(a, b): return np.outer(b, a)", 1),
])
def test_dense_product_scanner(source, found):
    assert len(_dense_products(ast.parse(source), exempt={"g"})) == found


def test_the_dense_helpers_are_gone():
    assert not hasattr(maps_mod, "_outer_sum")
    assert not hasattr(dsm_mod, "_apply")


@pytest.mark.parametrize("module", sorted(EXEMPT))
def test_no_solver_forms_a_dense_block(module):
    tree = ast.parse((SRC / module).read_text())
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert set(EXEMPT[module]) <= defined, "an exemption names a function that no longer exists"
    assert _dense_products(tree, EXEMPT[module]) == []
