"""A hyperelliptic threefold with nonabelian holonomy D4, end to end.

X = (E1 x E x E)/<(0, 1/2, 1/2)> modulo D4 = <r, s>, with
r = (z1 + 1/4, -z3, z2 + tau/2) and s = (-z1, z3, z2 + 1/2), after
Catanese-Demleitner, "Hyperelliptic threefolds with group D4, the dihedral
group of order 8".  Lattice coordinates are (coefficient of 1, coefficient
of tau) per factor, in the basis e0, e1, v, e3, e4, e5 of the enlarged
lattice with v = (0, 0, 1/2, 0, 1/2, 0); the form is B^T diag(J, J, J) B for
that basis B.  r and r^3 have eigenvalues i and -i, which the characteristic
polynomial cannot assign, so both are declared.  The expected values are
derived by hand: q = 0 so H = G, rho = chi + rho_2 gives h^{1,1} = 2 and
h^{2,1} = 2, and det rho is trivial, so h^{3,0} = 1.
"""

from __future__ import annotations

import json

from helpers import compose, element_index, fiber_datum
from hyperelliptic.action import validate
from hyperelliptic.albanese import run_pipeline
from hyperelliptic.cli import main
from hyperelliptic.documents import albanese_dict, build_datum
from hyperelliptic.invariants import invariants_report

HALF = "1/2"
D4_THREEFOLD = {
    "mode": "raw",
    "rank": 6,
    "form": [
        ["0", "1", "0", "0", "0", "0"],
        ["-1", "0", "0", "0", "0", "0"],
        ["0", "0", "0", HALF, "0", HALF],
        ["0", "0", "-" + HALF, "0", "0", "0"],
        ["0", "0", "0", "0", "0", "1"],
        ["0", "0", "-" + HALF, "0", "-1", "0"],
    ],
    "generators": [
        {  # r
            "matrix": [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, -1, 0, -2, 0],
                       [0, 0, 0, 0, 0, -1], [0, 0, 1, 0, 1, 0], [0, 0, 0, 1, 0, 0]],
            "translation": ["1/4", "0", "0", "0", "0", HALF],
            "eigenvalues": ["1", "i", "-i"],
        },
        {  # s
            "matrix": [[-1, 0, 0, 0, 0, 0], [0, -1, 0, 0, 0, 0], [0, 0, 1, 0, 2, 0],
                       [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, -1, 0], [0, 0, 0, 1, 0, 0]],
            "translation": ["0", "0", "0", "0", HALF, "0"],
            "eigenvalues": ["-1", "1", "-1"],
        },
    ],
    "elements": [
        {  # r^3
            "matrix": [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 2, 0],
                       [0, 0, 0, 0, 0, 1], [0, 0, -1, 0, -1, 0], [0, 0, 0, -1, 0, 0]],
            "eigenvalues": ["1", "i", "-i"],
        },
    ],
}


def d4_threefold():
    d = build_datum(D4_THREEFOLD)
    assert validate(d).passed
    return d


def test_albanese_and_invariants():
    d = d4_threefold()
    assert d.group.order == 8 and not d.group.is_abelian()
    report = run_pipeline(d, recurse=True)
    assert report.q == 0
    assert report.subgroup_h == tuple(range(8))
    assert albanese_dict(report, d)["fiber"]["description"] == (
        "hyperelliptic of dimension 3 with holonomy nonabelian of order 8"
    )
    inv = invariants_report(d)
    assert inv.diamond.rows()[:4] == ((1,), (0, 0), (0, 2, 0), (1, 2, 2, 1))
    assert inv.canonical_order == 1


def test_tables_match_compose():
    # the fiber's table is read off the datum's, so a swapped product would
    # cancel out in the fiber alone
    d = d4_threefold()
    pairs = [(i, j) for i in range(8) for j in range(8)]
    for group in (d.group, fiber_datum(d, run_pipeline(d)).group):
        elements = group.elements
        for i, j in pairs:
            product = compose(elements[i], elements[j])
            assert group.compose_indices(i, j) == element_index(group, product)
        noncommuting = [
            (i, j) for i, j in pairs if group.compose_indices(i, j) != group.compose_indices(j, i)
        ]
        assert len(noncommuting) == 24


def test_cli(tmp_path, capsys):
    path = tmp_path / "d4-threefold.json"
    path.write_text(json.dumps(D4_THREEFOLD))
    for command in (["check"], ["albanese", "--recurse"], ["invariants"]):
        assert main([command[0], str(path), *command[1:]]) == 0, command
    assert main(["oracle", str(path)]) == 0
    assert "fiber count: pass: 1 fibers of 4096 points each at level 4\n" in capsys.readouterr().out
