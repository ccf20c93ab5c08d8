"""The family table is the one place that names a structure family.

``maps.FAMILIES`` gives every family as (form, sign, cone) plus the family
it reflects; the solvers, evaluators and oracles read its fields.  The scan
below keeps it that way: no comparison in ``maps``, ``dsm`` or ``oracle``
may name a ``StructureFamily`` member, or a module-level set written out of
members, outside the table.
"""

import ast
import pathlib

import pytest

from dsmkit.maps import StructureFamily

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dsmkit"
MEMBERS = {family.name for family in StructureFamily}


def _names_member(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in MEMBERS


def _family_sets(trees) -> set[str]:
    """Names bound at module level to a value written out of family members, the table itself aside."""
    names = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = {t.id for t in targets if isinstance(t, ast.Name)} - {"FAMILIES"}
                if any(_names_member(n) for n in ast.walk(node.value)):
                    names |= bound
    return names


def _family_compares(tree, sets) -> list[int]:
    """Line numbers of the comparisons in ``tree`` that name a family member or one of ``sets``."""
    def names_set(n):
        return (isinstance(n, ast.Name) and n.id in sets) or (isinstance(n, ast.Attribute) and n.attr in sets)

    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and any(_names_member(n) or names_set(n) for n in ast.walk(node))]


@pytest.mark.parametrize("source, found", [
    ("family is StructureFamily.PSD", 1),
    ("family in (F.SYMMETRIC, F.SKEW_SYMMETRIC)", 1),
    ("BILINEAR = frozenset({F.SYMMETRIC})\nf in BILINEAR", 1),
    ("BILINEAR = {F.SYMMETRIC: 1}\nf in maps.BILINEAR", 1),
    ("spec.cone == 'psd'", 0),
    ("FAMILIES = {F.PSD: Spec('sesquilinear', 1, 'psd')}\nFAMILIES[f].cone is None", 0),
    ("LINEAR = {s.form: f for f, s in FAMILIES.items()}\nf in LINEAR", 0),
    ("fn(F.HERMITIAN, a)", 0),
])
def test_family_compare_scanner(source, found):
    tree = ast.parse(source)
    assert len(_family_compares(tree, _family_sets([tree]))) == found


def test_no_family_comparison_outside_the_table():
    trees = {name: ast.parse((SRC / name).read_text()) for name in ("maps.py", "dsm.py", "oracle.py")}
    sets = _family_sets(trees.values())
    offenders = [f"{name}:{line}" for name, tree in trees.items() for line in _family_compares(tree, sets)]
    assert offenders == []


def test_every_family_is_one_row_and_a_reflection_shares_its_base_row():
    from dsmkit.maps import FAMILIES, LINEAR_FAMILIES

    assert set(FAMILIES) == set(StructureFamily)
    for family, spec in FAMILIES.items():
        if spec.reflects is not None:
            base = FAMILIES[spec.reflects]
            assert base.reflects is None and (spec.form, spec.sign, spec.cone) == (base.form, base.sign, base.cone)
    reflected = {family: spec.reflects for family, spec in FAMILIES.items() if spec.reflects is not None}
    assert reflected == {StructureFamily.NSD: StructureFamily.PSD,
                         StructureFamily.ANTI_DISSIPATIVE: StructureFamily.DISSIPATIVE}
    assert LINEAR_FAMILIES == {StructureFamily.UNSTRUCTURED, StructureFamily.HERMITIAN, StructureFamily.SKEW_HERMITIAN,
                               StructureFamily.SYMMETRIC, StructureFamily.SKEW_SYMMETRIC}
