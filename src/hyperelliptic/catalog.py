"""Built-in named constructions used as regression fixtures and documentation.

Every entry stores its input document (so catalog export and the CLI file
format round-trip by construction) plus the expected values, which are
restricted to classically stated facts about the construction; everything
else the pipeline computes is exercised by the test suite as derived
snapshots, clearly separated from these expectations.

The entries are data: they live in ``catalog.json`` beside this module and
are read with one JSON parse, which costs far less than compiling them as
Python source would.  In the expectations, rationals are strings "p/q",
tuples are lists, and a word in the generators is a list of generator
indices (``[0, 0]`` is g^2).

Coordinate convention: a point of a factor E = C/(Z + tau*Z) is written in
the coordinates (coefficient of 1, coefficient of tau), so a half-period
tau/2 is (0, 1/2), and (1 - zeta3)/3 on an Eisenstein curve is (1/3, -1/3).

The constructions:

* ``bielliptic-1`` ... ``bielliptic-7``: the seven bielliptic families
  (Bagnera-de Franchis / Enriques-Severi classification) in the
  translation-free cyclic presentation, g = (z1 + 1/order, zeta*z2) on
  E_tau x A1.  ``albanese_lattice_factor0`` lists the Albanese lattice on
  the E_tau plane in (1, tau) coordinates.
* ``z4-threefold``: (E_tau0 x E_tau1 x E_i)/<(1/2, 1/2, 0)> with
  g = (z0 + 1/4, -z1, i z2); H = {1, g^2}, and the Albanese fiber is a
  bielliptic surface.
* ``z2z2-threefold``: g1 = (-z1, -z2 + 1/2, z3 + 1/2) and
  g2 = (z1 + 1/2, -z2, -z3); regular, with trivial canonical bundle.
* ``zmzm-threefold-m2``, ``-m3``: g1 = (z0 + 1/m, zeta_m z1, z2) and
  g2 = (z0 + tau0/m, z1, zeta_m z2) over (E_0 x E_1 x E_2)/<(1/m, 0, t)>,
  t a fixed point of zeta_m; H is generated by g1.
* ``abelian-fiber-construction``: (A0 x A1)/<(z0 + 1/2, -z1)> with A0
  elliptic and A1 a product of two generic curves.
* ``low-irregularity-cyclic``: (T x E)/(Z/2) with (a, z) -> (-a, z + 1/2),
  T a product of two elliptic curves.
* ``small-irregularity-cyclic``: the diagonal Z/6 on a product of a Z/2- and
  a Z/3-type bielliptic cover.
* ``z4-threefold-corrupted`` (negative control): ``z4-threefold`` with the
  translation 1/4 corrupted to 1/2, so g^2 has fixed points.
* ``not-all-bielliptic-2-6`` (negative control): g1 = (z1 + tau'/2, -z2, z3)
  and g2 = (z1 + 1/4, z2 + 1/2, zeta6 z3) on
  (E_tau' x E_tau x E_zeta3)/<(1/2, 1/2, 0)>.  2 t0(g2) = 1/2 lies in K0,
  which forces an order-3 element into H; g2^4 then has a fixed point.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple

from .action import HyperellipticDatum, validate
from .albanese import run_pipeline
from .documents import build_datum
from .exactlin import Sublattice
from .invariants import invariants_report

F = Fraction


class UnknownEntry(KeyError):
    """No catalog entry with the requested name."""


class CatalogEntry(NamedTuple):
    name: str
    provenance: str
    document: dict
    expected: Mapping = MappingProxyType({})
    expect_invalid: bool = False

    def build(self) -> HyperellipticDatum:
        return build_datum(self.document)


def _load_entries() -> dict[str, CatalogEntry]:
    path = os.path.join(os.path.dirname(__file__), "catalog.json")
    with open(path, encoding="utf-8") as fh:
        return {item["name"]: CatalogEntry(**item) for item in json.load(fh)}


_ENTRIES = _load_entries()


def _as_json(value):
    """A computed value in the form the expectations take: tuples become lists."""
    if isinstance(value, (tuple, list)):
        return [_as_json(x) for x in value]
    return value


def list_entries() -> tuple[str, ...]:
    return tuple(sorted(_ENTRIES))


def get_entry(name: str) -> CatalogEntry:
    try:
        return _ENTRIES[name]
    except KeyError:
        raise UnknownEntry(name) from None


def _word_to_element(datum: HyperellipticDatum, word) -> int:
    """Index of the product of the generators in ``word``, read off the Cayley edges."""
    index = 0
    for k in word:
        index = datum.group.edges[index][k]
    return index


def run_entry(name: str) -> dict:
    """Compute the entry and diff against its expected values (empty diff = pass)."""
    entry = get_entry(name)
    datum = entry.build()
    report = validate(datum)
    diff: dict = {}

    def check(key, actual):
        if key in entry.expected and entry.expected[key] is not None:
            if entry.expected[key] != _as_json(actual):
                diff[key] = {"expected": entry.expected[key], "actual": actual}

    if entry.expect_invalid:
        if report.passed:
            diff["validated"] = {"expected": "invalid", "actual": "valid"}
            return diff
        for word in entry.expected.get("fixed_point_words", []):
            if _word_to_element(datum, word) not in report.fixed_point_elements:
                diff["fixed_point_words"] = {
                    "expected": f"fixed point at word {word}",
                    "actual": list(report.fixed_point_elements),
                }
        return diff

    if not report.passed:
        diff["validated"] = {"expected": "valid", "actual": report.failures()}
        return diff

    check("group_order", datum.group.order)
    check("cyclic", datum.group.is_cyclic())
    alb = run_pipeline(datum)
    inv = invariants_report(datum)
    check("q", alb.q)
    check("dim", alb.dim)
    check("k_order", alb.decomposition.k.order)
    check(
        "albanese_isogeny_factors_normalized",
        tuple(sorted(alb.albanese_isogeny_factors, reverse=True)),
    )
    check("canonical_order", inv.canonical_order)
    check("euler", inv.euler_char_structure_sheaf)
    check("hodge_rows", inv.diamond.rows())
    check("fiber_kind", alb.fiber_class.kind)
    check("fiber_dim", alb.fiber_class.dim)
    check("fiber_holonomy_order", alb.fiber_class.holonomy_order)
    check("fiber_cyclic", alb.fiber_class.cyclic)
    check("h_order", len(alb.subgroup_h))

    if "group_invariant_factors" in entry.expected:
        from .albanese import _abelian_invariant_factors

        check("group_invariant_factors", _abelian_invariant_factors(datum.group))

    if "h_words" in entry.expected:
        expected_h = {_word_to_element(datum, word) for word in entry.expected["h_words"]}
        if expected_h != set(alb.subgroup_h):
            diff["h_words"] = {
                "expected": entry.expected["h_words"],
                "actual": list(alb.subgroup_h),
            }

    if "albanese_lattice_factor0" in entry.expected:
        torus = datum.torus
        rank = torus.rank
        expected_vectors = []
        for v in entry.expected["albanese_lattice_factor0"]:
            col = [F(0)] * rank
            col[0], col[1] = F(v[0]), F(v[1])
            expected_vectors.append(tuple(col))
        expected_lattice = Sublattice.from_rat_columns(rank, expected_vectors)
        actual_vectors = [
            torus.to_product_coords(b) for b in alb.albanese_lattice.basis_vectors()
        ]
        actual_lattice = Sublattice.from_rat_columns(rank, actual_vectors)
        if expected_lattice != actual_lattice:
            diff["albanese_lattice_factor0"] = {
                "expected": [[str(x) for x in v] for v in expected_vectors],
                "actual": [[str(x) for x in v] for v in actual_vectors],
            }

    if "k0_lattice_factor_plane" in entry.expected:
        factor_index, gens = entry.expected["k0_lattice_factor_plane"]
        torus = datum.torus
        rank = torus.rank
        expected_vectors = []
        for j in (2 * factor_index, 2 * factor_index + 1):
            col = [F(0)] * rank
            col[j] = F(1)
            expected_vectors.append(tuple(col))
        for g in gens:
            col = [F(0)] * rank
            col[2 * factor_index], col[2 * factor_index + 1] = F(g[0]), F(g[1])
            expected_vectors.append(tuple(col))
        expected_lattice = Sublattice.from_rat_columns(rank, expected_vectors)
        actual_vectors = [
            torus.to_product_coords(b)
            for b in alb.decomposition.lambda0.basis_vectors()
        ] + [torus.to_product_coords(g) for g in alb.decomposition.k0.generators]
        actual_lattice = Sublattice.from_rat_columns(rank, actual_vectors)
        if expected_lattice != actual_lattice:
            diff["k0_lattice_factor_plane"] = {
                "expected": [[str(x) for x in v] for v in expected_vectors],
                "actual": [[str(x) for x in v] for v in actual_vectors],
            }

    if "fiber_factor_kinds" in entry.expected:
        torus = datum.torus
        if alb.fiber_factor_indices is None or torus.factors is None:
            diff["fiber_factor_kinds"] = {
                "expected": entry.expected["fiber_factor_kinds"],
                "actual": None,
            }
        else:
            kinds = tuple(torus.factors[i].kind for i in alb.fiber_factor_indices)
            if kinds != tuple(entry.expected["fiber_factor_kinds"]):
                diff["fiber_factor_kinds"] = {
                    "expected": entry.expected["fiber_factor_kinds"],
                    "actual": kinds,
                }

    if "fiber_holonomy_invariant_factors" in entry.expected:
        check(
            "fiber_holonomy_invariant_factors",
            alb.fiber_class.holonomy_invariant_factors,
        )

    return diff
