"""The record classes: what they compare, what they refuse, and what importing the CLI loads.

Value records are `typing.NamedTuple`s; the classes with a checking
constructor, derived attributes or cached state are plain `__slots__`
classes.  Neither kind needs `dataclasses`, and the CLI imports the catalog
only when the `catalog` command runs, which keeps a fresh `import
hyperelliptic.cli` cheap.
"""

import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import hyperelliptic
from hyperelliptic.action import AffineAut, validate
from hyperelliptic.albanese import run_pipeline
from hyperelliptic.catalog import CatalogEntry, get_entry
from cyclo_reference import CycloNumber
from helpers import (
    as_pair,
    factor_key,
    from_rat_columns,
    lam_basis,
    lattice_coords,
    over_common_denominator,
    rational,
    torus_key,
)
from hyperelliptic.cyclotomic import RootOfUnity
from hyperelliptic.errors import InternalError, InvalidDatum
from hyperelliptic.exactlin import Sublattice, identity
from hyperelliptic.invariants import invariants_report
from hyperelliptic.torus import (
    AlternatingForm,
    EllipticFactor,
    TorusDatum,
    build_product_torus,
)


def test_cli_import_loads_neither_dataclasses_nor_the_catalog():
    script = (
        "import sys\n"
        "import hyperelliptic.cli\n"
        "print(sorted(m for m in ('dataclasses', 'inspect', 'hyperelliptic.catalog')"
        " if m in sys.modules))\n"
        "import hyperelliptic\n"
        "print(len(hyperelliptic.catalog.list_entries()))\n"
    )
    src = str(Path(hyperelliptic.__file__).parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert run.stdout.splitlines() == ["[]", "16"]


class TestPlainClasses:
    def test_affine_aut_compares_linear_part_and_translation_only(self):
        half = (1, 0)
        a = AffineAut(identity(2), 2, half, (RootOfUnity.one(),))
        b = AffineAut(identity(2), 2, half, (RootOfUnity.of(1, 2),))
        assert a.key() == b.key()  # elements are compared by key; eigenvalues are not in it
        assert a.key() != AffineAut(identity(2), 2, (0, 1), (RootOfUnity.one(),)).key()
        assert a.key() != AffineAut(((-1, 0), (0, -1)), 2, half, (RootOfUnity.one(),)).key()

    def test_torus_equality_ignores_the_derived_inverse(self):
        factors = (EllipticFactor("generic", "t"), EllipticFactor("gauss"))
        k_gen = (F(1, 2), F(0), F(0), F(1, 2))
        k_gens = over_common_denominator([k_gen])
        a = build_product_torus(factors, k_gens)
        b = build_product_torus(factors, k_gens)
        assert torus_key(a) == torus_key(b)  # tori are compared by key; no library code does
        assert a.lam_basis_inv == b.lam_basis_inv
        b.lam_basis_inv = ()  # a derived attribute; the key leaves it out
        assert torus_key(a) == torus_key(b)
        relabelled = (EllipticFactor("generic", "s"), EllipticFactor("gauss"))
        assert torus_key(a) != torus_key(build_product_torus(relabelled, k_gens))
        assert torus_key(a) != torus_key(build_product_torus(factors))

    def test_torus_product_coordinates_round_trip(self):
        factors = (EllipticFactor("generic"), EllipticFactor("generic"))
        t = build_product_torus(factors, over_common_denominator([(F(1, 2), F(0), F(1, 2), F(0))]))
        v = (F(1, 3), F(-2), F(5, 7), F(0))
        assert rational(*t.to_product_coords(*as_pair(lattice_coords(t, v)))) == v
        for j, column in enumerate(zip(*lam_basis(t))):
            e_j = tuple(F(int(i == j)) for i in range(t.rank))
            assert rational(*t.to_product_coords(*as_pair(e_j))) == column

    def test_forms_and_factors_compare_by_value(self):
        matrix = ((0, 1), (-1, 0))
        # forms compare by their Gram matrix and factors by kind and label; no library code does
        assert AlternatingForm(matrix).matrix == AlternatingForm(tuple(map(tuple, matrix))).matrix
        assert factor_key(EllipticFactor("gauss", "E")) == factor_key(EllipticFactor("gauss", "E"))
        assert factor_key(EllipticFactor("gauss", "E")) != factor_key(EllipticFactor("gauss"))
        assert CycloNumber.one(4) == CycloNumber.from_rational(1, 4)
        assert CycloNumber.one(4) != CycloNumber.zero(4)

    @pytest.mark.parametrize(
        "build,error,message",
        [
            (lambda: AlternatingForm(((0, 1), (1, 0))), InvalidDatum,
             "form matrix must be antisymmetric"),
            (lambda: AlternatingForm(((0, 0), (0, 0))), InvalidDatum, "form matrix is singular"),
            (lambda: TorusDatum(Sublattice.standard(4), (EllipticFactor("generic"),)),
             InternalError, "factor count does not match rank"),
            (lambda: TorusDatum(Sublattice.from_int_columns(2, [(2, 0), (0, 1)])), InternalError,
             "lattice must contain the product lattice Z^rank"),
            (lambda: CycloNumber(4, (F(1),)), InternalError,
             "Q(zeta_4) needs 2 coefficients, got 1"),
        ],
        ids=["form-not-antisymmetric", "form-singular", "factor-count", "lattice-misses-Z^n",
             "cyclo-coefficients"],
    )
    def test_checking_constructors_still_check(self, build, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()


class TestValueRecords:
    def test_roots_of_unity_sort_by_k_then_order(self):
        roots = [RootOfUnity.of(k, n) for k, n in ((3, 4), (1, 2), (1, 4), (0, 1), (1, 3))]
        assert sorted(roots) == [
            RootOfUnity(0, 1), RootOfUnity(1, 2), RootOfUnity(1, 3),
            RootOfUnity(1, 4), RootOfUnity(3, 4),
        ]
        i = RootOfUnity.of(1, 4)
        assert i * i == RootOfUnity.of(1, 2) and i * i * i == RootOfUnity.of(3, 4)

    def test_records_refuse_attribute_assignment(self):
        d = get_entry("z4-threefold").build()
        report = run_pipeline(d, recurse=True)
        records = [
            validate(d), report, report.decomposition, report.decomposition.k,
            report.fiber_class, report.albanese_lattice, invariants_report(d),
            invariants_report(d).diamond, RootOfUnity.one(), get_entry("z4-threefold"),
        ]
        for record in records:
            with pytest.raises(AttributeError):
                setattr(record, record._fields[0], None)
            with pytest.raises(AttributeError):
                record.extra = None

    def test_recursion_sets_the_fiber_report_on_a_copy(self):
        d = get_entry("z4-threefold").build()
        flat = run_pipeline(d)
        deep = run_pipeline(d, recurse=True)
        assert flat.fiber_report is None and deep.fiber_report is not None
        assert deep._replace(fiber_report=None) == flat._replace(fiber=deep.fiber)

    def test_catalog_entry_expectations_default_to_a_read_only_empty_mapping(self):
        entry = CatalogEntry("name", "provenance", {"mode": "raw"})
        assert dict(entry.expected) == {} and entry.expect_invalid is False
        with pytest.raises(TypeError):
            entry.expected["q"] = 1

    def test_sublattices_compare_as_lattices(self):
        a = from_rat_columns(2, [(F(1, 2), F(0)), (F(0), F(1))])
        b = from_rat_columns(2, [(F(1, 2), F(1)), (F(0), F(-1))])
        assert a == b and hash(a) == hash(b)
        assert a != Sublattice.standard(2)
