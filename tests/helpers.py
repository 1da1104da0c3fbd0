"""Helpers only the tests use, kept out of the library.

Each was a library method or function that no library code called: lattice
saturation, the torsion model's orbit enumeration, the survey's "every count
exhaustive" flag and the index of a torus lattice over the product lattice.
"""

from __future__ import annotations

import itertools

from hyperelliptic.exactlin import LatticeError, Sublattice, kernel_lattice, mat_det, transpose
from hyperelliptic.oracle import CapExceeded

ORBIT_ENUMERATION_LIMIT = 500_000


def saturate(s: Sublattice) -> Sublattice:
    """Saturation (span_Q(s) intersected with Z^ambient) of an integer sublattice."""
    if s.den != 1:
        raise LatticeError("saturate expects an integer sublattice")
    if s.rank == 0:
        return s
    basis = s.basis_matrix()  # ambient x rank
    ann = kernel_lattice(transpose(basis))  # {y : y . col == 0 for all columns}
    if ann.rank == 0:
        return Sublattice.standard(s.ambient_rank)
    return kernel_lattice(transpose(ann.basis_matrix()))


def is_saturated(s: Sublattice) -> bool:
    if s.den != 1:
        raise LatticeError("saturation is only meaningful for integer lattices")
    return saturate(s) == s


def torsion_points(model):
    """Every point of the torsion model, as tuples mod its level."""
    return itertools.product(range(model.level), repeat=model.rank)


def apply(model, element_index: int, point):
    """The image of a point under one group element of the torsion model."""
    m, nt = model.actions[element_index]
    n = model.level
    return tuple(
        (sum(m[i][j] * point[j] for j in range(model.rank)) + nt[i]) % n
        for i in range(model.rank)
    )


def orbits(model) -> list[int]:
    """All orbit sizes of the torsion model (small models only)."""
    if model.point_count > ORBIT_ENUMERATION_LIMIT:
        raise CapExceeded("orbit enumeration is limited to small models")
    seen: set = set()
    sizes = []
    for p in torsion_points(model):
        if p in seen:
            continue
        orbit = {p}
        frontier = [p]
        while frontier:
            x = frontier.pop()
            for i in range(len(model.actions)):
                y = apply(model, i, x)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        seen |= orbit
        sizes.append(len(orbit))
    return sizes


def all_exhaustive(survey) -> bool:
    """Whether every fixed-point count of the survey is exhaustive evidence."""
    return all(c.exhaustive for c in survey.checks)


def index_over_product_lattice(torus) -> int:
    """[Lambda : Z^rank], the index of the torus lattice over the product lattice."""
    return int(abs(1 / mat_det(torus.lam_basis)))
