"""Every matrix and vector the library multiplies is integral.

`exactlin.mat_mul`, `exactlin.list_product` (the same product, read off
b's columns and returned as list rows) and `exactlin.mat_vec` are the plain
integer products: they would multiply `Fraction` operands too, without a
word, so nothing in them holds the contract.  This test does.  It rebinds each product wherever
a `hyperelliptic` module binds it, the way `perfbench/tracing.py` rebinds
its traced functions, with a wrapper that asserts every entry of both
operands is an `int`, and runs `check`, `albanese --recurse`, `invariants`
and `oracle` through the CLI on the catalog entries, the output digest's
stress documents (every point and seed), the D4 threefold, `z4-threefold`
in the superdiagonal lattice basis and the digest's two catalog variants,
`z4-threefold` spelled in decimals and `small-irregularity-cyclic` at rank 10.
"""

import contextlib
import io
import json
import sys
from fractions import Fraction

import pytest

from hyperelliptic import exactlin, torus
from hyperelliptic.catalog import list_entries
from hyperelliptic.cli import main
from output_digest import STRESS_POINTS, documents

COMMANDS = (["check"], ["albanese", "--recurse"], ["invariants"], ["oracle"])
GROUPS = ("catalog", "stress", "d4", "base-change", "variant")
# each product's operand entries: two matrices, or a matrix and a vector
ENTRIES = {
    "mat_mul": lambda a, b: [x for m in (a, b) for row in m for x in row],
    "list_product": lambda rows, cols: [x for m in (rows, cols) for row in m for x in row],
    "mat_vec": lambda a, v: [x for row in a for x in row] + list(v),
}


def group_of(name: str) -> str:
    if name.startswith("stress-"):
        return "stress"
    if name.startswith("sweep-"):
        return "sweep"
    if name == "d4-threefold":
        return "d4"
    if name in ("z4-threefold-decimal", "small-irregularity-cyclic-rank10"):
        return "variant"
    return "catalog" if name in list_entries() else "base-change"


def integer_only(monkeypatch, product: str):
    """Rebind one product in every hyperelliptic namespace; return the list of checked calls."""
    original = getattr(exactlin, product)
    entries = ENTRIES[product]
    calls = []

    def checked(a, b):
        bad = next((x for x in entries(a, b) if type(x) is not int), None)
        assert bad is None, f"{product} operand entry {bad!r} is not an int"
        calls.append(None)
        return original(a, b)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "hyperelliptic" or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, checked)
    return calls


def run_group(group: str, tmp_path) -> None:
    """Run every command, in json, on each document of one group."""
    path = tmp_path / "datum.json"
    seen = 0
    for name, doc in documents():
        if group_of(name) != group:
            continue
        seen += 1
        path.write_text(json.dumps(doc))
        for command in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command[0], str(path), *command[1:], "--format", "json"])
            assert code in (0, 2), (name, command, code)
    counts = {"catalog": len(list_entries()), "stress": 4 * len(STRESS_POINTS), "d4": 1,
              "base-change": 1, "variant": 2}
    assert seen == counts[group]


def test_the_wrapper_refuses_a_fraction(monkeypatch):
    calls = integer_only(monkeypatch, "mat_mul")
    assert torus.mat_mul(((1, 2),), ((3,), (4,))) == ((11,),)
    with pytest.raises(AssertionError, match="not an int"):
        torus.mat_mul(((Fraction(1, 2),),), ((1,),))
    assert len(calls) == 1


def test_the_mat_vec_wrapper_refuses_a_fraction(monkeypatch):
    calls = integer_only(monkeypatch, "mat_vec")
    assert torus.mat_vec(((1, 2), (0, -1)), (3, 4)) == (11, -4)
    with pytest.raises(AssertionError, match="mat_vec operand entry Fraction"):
        torus.mat_vec(((1, 2),), (Fraction(1, 2), 1))
    with pytest.raises(AssertionError, match="not an int"):
        torus.mat_vec(((Fraction(1, 2),),), (1,))
    assert len(calls) == 1


@pytest.mark.parametrize("group", GROUPS)
def test_every_mat_mul_operand_is_an_integer_matrix(group, tmp_path, monkeypatch):
    calls = integer_only(monkeypatch, "mat_mul")
    run_group(group, tmp_path)
    assert calls  # the wrapper was reached through the library's own bindings


@pytest.mark.parametrize("group", GROUPS)
def test_every_list_product_operand_is_an_integer_matrix(group, tmp_path, monkeypatch):
    calls = integer_only(monkeypatch, "list_product")
    run_group(group, tmp_path)
    assert calls  # the wrapper was reached through the library's own bindings


@pytest.mark.parametrize("group", GROUPS)
def test_every_mat_vec_operand_is_integral(group, tmp_path, monkeypatch):
    calls = integer_only(monkeypatch, "mat_vec")
    run_group(group, tmp_path)
    assert calls  # the wrapper was reached through the library's own bindings
