"""JSON input documents and deterministic report serialization.

All numbers on the wire are exact rationals written as strings "p/q" in
lowest terms ("p" when the denominator is 1); no floating point exists in the
format.  A document may also give a rational as a JSON integer or as a
decimal "p.d".  One compiled pattern per token kind (`_RATIONAL`,
`_ROOT_LABEL`) says exactly what a document may contain, and `read_digits`
turns each digit run it captures into an int, so a rational is read straight
into (den, numerator) in lowest terms, a vector leaves the parser as (den,
integers) over its least den, and reports write it back with
`exactlin.format_rational`.  Serialization is byte-deterministic for a fixed
input: dictionaries are built in canonical order and dumped with sorted keys.
"""

from __future__ import annotations

import json
import re
import sys

from .action import (
    DEFAULT_CLOSURE_CAP,
    MAX_CLOSURE_CAP,
    MAX_RANK,
    HyperellipticDatum,
    ValidationReport,
    affine_from_factor_action,
    affine_raw,
    close_group,
)
from .albanese import AlbaneseReport
from .cyclotomic import ROOT_SHORTHAND, RootOfUnity
from .errors import InputError
from .exactlin import Sublattice, common_denominator, format_rational, least_denominator
from .torus import (
    FACTOR_KINDS,
    AlternatingForm,
    EllipticFactor,
    TorusDatum,
    build_product_torus,
    factor_automorphism_matrix,
    standard_form,
)


# ---------------------------------------------------------------------------
# rationals and root-of-unity labels

_ASCII_SPACE = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "  # the ASCII characters str.isspace() accepts
_SPACE = f"[{_ASCII_SPACE}]*"  # what may surround a rational or a root-of-unity label
# [-+]? then p, p/q, p. or p.d, or .d, in ASCII digits: no '_' separators, no non-ASCII digits
# and no exponent, which would let nine characters, 1e1000000, ask for a million digits
_RATIONAL = re.compile(rf"{_SPACE}(?P<sign>[-+]?)(?P<num>[0-9]+|(?=\.[0-9]))"
                       rf"(?:/(?P<den>[0-9]+)|\.(?P<frac>[0-9]*))?{_SPACE}")
_ROOT_LABEL = re.compile(r"zeta(?P<order>[0-9]+)(?:\^(?P<minus>-?)(?P<power>[0-9]+))?")


def read_digits(run: str, what: str) -> int:
    """The int a run of ASCII digits spells, or a refusal that names an over-long run by its length.

    int()'s own refusal quotes a remedy (sys.set_int_max_str_digits) that a document cannot apply.
    """
    limit = sys.get_int_max_str_digits()
    if 0 < limit < len(run):
        raise InputError(f"{what}: a number of {len(run)} digits, over the limit of {limit}")
    return int(run)


def parse_rational(text) -> tuple[int, int]:
    """(den, numerator) in lowest terms of a JSON integer or of a string `_RATIONAL` reads."""
    if isinstance(text, int) and not isinstance(text, bool):
        return 1, text
    if not isinstance(text, str):
        raise InputError(f"expected a rational string, got {text!r}")
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise InputError(f"bad rational {text!r}: not p, p/q or a decimal p.d in ASCII digits "
                         "with an optional sign, without '_' or exponent notation")
    num, den, frac = m.group("num", "den", "frac")
    low = read_digits(frac or "0", "bad rational")  # an over-long run never reaches 10 ** len
    scale = 10 ** len(frac or "")
    top = read_digits(num or "0", "bad rational") * scale + low
    bottom = read_digits(den or "1", "bad rational") * scale
    if bottom == 0:
        raise InputError(f"bad rational {text!r}: zero denominator")
    q, (p,) = least_denominator(bottom, (-top if m["sign"] == "-" else top,))
    return q, p


def parse_vector(items, length: int) -> tuple[int, tuple[int, ...]]:
    """A list of rationals as (den, integers), den the least that makes them integral."""
    if not isinstance(items, list):
        raise InputError(f"expected a list of rationals, got {items!r}")
    v = [parse_rational(x) for x in items]
    if len(v) != length:
        raise InputError(f"expected {length} coordinates, got {len(v)}")
    den, scaled = common_denominator([(d, (x,)) for d, x in v])
    return den, tuple(x for (x,) in scaled)


def format_vector(den: int, v) -> list[str]:
    return [format_rational(x, den) for x in v]


def parse_root_label(text) -> RootOfUnity:
    if not isinstance(text, str):
        raise InputError(f"expected a root-of-unity label, got {text!r}")
    label = text.strip(_ASCII_SPACE)
    if label in ROOT_SHORTHAND:
        return RootOfUnity.of(*ROOT_SHORTHAND[label])
    m = _ROOT_LABEL.fullmatch(label)
    if m is None:
        raise InputError(f"bad root-of-unity label {text!r}: not 1, -1, i, -i, zeta<n> or "
                         "zeta<n>^<k> with n and k in ASCII digits, k with an optional '-'")
    order = read_digits(m["order"], "bad root-of-unity label")
    power = read_digits(m["power"], "bad root-of-unity label") if m["power"] else 1
    if order < 1:
        raise InputError(f"bad root-of-unity order in {text!r}")
    return RootOfUnity.of(-power if m["minus"] else power, order)


# ---------------------------------------------------------------------------
# documents -> data

def _check_keys(item: dict, allowed, where: str) -> None:
    """A key outside ``allowed`` is an input error, not a field read as its default."""
    unknown = sorted(set(item) - allowed)
    if unknown:
        raise InputError(f"unknown keys in {where}: {unknown}")


def _parse_factor(item, where: str) -> EllipticFactor:
    if not isinstance(item, dict) or "kind" not in item:
        raise InputError(f"factor entries need a 'kind', got {item!r}")
    _check_keys(item, {"kind", "label"}, where)
    kind = item["kind"]
    if not isinstance(kind, str) or kind not in FACTOR_KINDS:
        raise InputError(f"unknown factor kind {kind!r}")
    label = item.get("label", "")
    if not isinstance(label, str):
        raise InputError(f"factor labels must be strings, got {label!r}")
    return EllipticFactor(kind, label)


def _parse_int_matrix(rows, size: int):
    if not isinstance(rows, list) or len(rows) != size:
        raise InputError(f"expected a {size}x{size} integer matrix")
    out = []
    for row in rows:
        if not isinstance(row, list) or len(row) != size:
            raise InputError(f"expected a {size}x{size} integer matrix")
        if not all(type(x) is int for x in row):  # not bool, float or a numeric string
            raise InputError(f"matrix entries must be JSON integers, got {row!r}")
        out.append(tuple(row))
    return tuple(out)


def _list(doc, key: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise InputError(f"{key} must be a list, got {value!r}")
    return value


def _positive_int(doc, key: str, default=None, maximum=None) -> int:
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise InputError(f"{key} must be a positive integer, got {value!r}")
    if maximum is not None and value > maximum:
        raise InputError(f"{key} must be at most {maximum}, got {value}")
    return value


def _build_builder(doc) -> HyperellipticDatum:
    factors = [_parse_factor(f, f"factors[{k}]") for k, f in enumerate(_list(doc, "factors"))]
    if not factors:
        raise InputError("builder documents need at least one factor")
    rank = 2 * len(factors)
    if rank > MAX_RANK:
        raise InputError(
            f"factors: {len(factors)} factors give rank {rank}, over the maximum {MAX_RANK}"
        )
    k_gens = common_denominator([parse_vector(v, rank) for v in _list(doc, "k_gens")])
    torus = build_product_torus(factors, k_gens)
    generators = []
    for k, spec in enumerate(_list(doc, "generators")):
        if not isinstance(spec, dict):
            raise InputError("generator entries must be objects")
        _check_keys(spec, {"zetas", "blocks", "translation"}, f"generators[{k}]")
        if ("zetas" in spec) == ("blocks" in spec):
            raise InputError(f"generators[{k}] needs exactly one of 'zetas' and 'blocks'")
        translation = parse_vector(spec.get("translation", ["0"] * rank), rank)
        if "zetas" in spec:
            zetas = spec["zetas"]
            if not isinstance(zetas, list) or len(zetas) != len(factors):
                raise InputError("need one root-of-unity label per factor")
            blocks = [
                factor_automorphism_matrix(f, parse_root_label(z))
                for f, z in zip(factors, zetas)
            ]
        else:
            blocks = [_parse_int_matrix(b, 2) for b in _list(spec, "blocks")]
            if len(blocks) != len(factors):
                raise InputError("need one 2x2 block per factor")
        generators.append(affine_from_factor_action(torus, blocks, translation))
    cap = _positive_int(doc, "closure_cap", DEFAULT_CLOSURE_CAP, MAX_CLOSURE_CAP)
    group = close_group(generators, torus, cap=cap)
    return HyperellipticDatum(torus, group, standard_form(torus))


def _build_raw(doc) -> HyperellipticDatum:
    rank = _positive_int(doc, "rank", maximum=MAX_RANK)
    if rank % 2 != 0:
        raise InputError("rank must be a positive even integer")
    if "form" not in doc:
        raise InputError("raw documents must supply an alternating 'form'")
    form_rows = doc["form"]
    if not isinstance(form_rows, list) or len(form_rows) != rank:
        raise InputError(f"form must be a {rank}x{rank} matrix")
    form = AlternatingForm(common_denominator([parse_vector(row, rank) for row in form_rows])[1])
    torus = TorusDatum.raw(rank)

    def parse_element(spec, where):
        if not isinstance(spec, dict) or "matrix" not in spec:
            raise InputError("raw elements need a 'matrix'")
        _check_keys(spec, {"matrix", "translation", "eigenvalues"}, where)
        linear = _parse_int_matrix(spec["matrix"], rank)
        translation = parse_vector(spec.get("translation", ["0"] * rank), rank)
        labels = spec.get("eigenvalues")
        if not isinstance(labels, list) or len(labels) != rank // 2:
            raise InputError(f"raw elements need {rank // 2} eigenvalue labels")
        eig = tuple(parse_root_label(z) for z in labels)
        return affine_raw(linear, translation, eig)

    element_specs = _list(doc, "elements")
    generators = [parse_element(spec, f"generators[{k}]")
                  for k, spec in enumerate(_list(doc, "generators"))]
    elements = [parse_element(spec, f"elements[{k}]") for k, spec in enumerate(element_specs)]
    table, first = {}, {}  # matrix -> its eigenvalues, and the entry that declared them first
    for key, entries in (("generators", generators), ("elements", elements)):
        for k, e in enumerate(entries):
            name = first.setdefault(e.linear, f"{key}[{k}]")
            if table.setdefault(e.linear, e.eigenvalues) != e.eigenvalues:
                raise InputError(f"{name} and {key}[{k}] declare different eigenvalues "
                                 "for one matrix")
    cap = _positive_int(doc, "closure_cap", DEFAULT_CLOSURE_CAP, MAX_CLOSURE_CAP)
    group = close_group(generators, torus, cap=cap, eigenvalue_table=table)
    linear_parts = {e.linear for e in group.elements}
    keys = {e.key() for e in group.elements}
    for k, (spec, e) in enumerate(zip(element_specs, elements)):
        if e.linear not in linear_parts:
            raise InputError(f"elements[{k}]: its matrix is the linear part of no group element")
        if "translation" in spec and e.key() not in keys:
            raise InputError(f"elements[{k}]: no group element has its matrix and translation")
    return HyperellipticDatum(torus, group, form, j_stability_assumed=True)


_DOCUMENT_KEYS = {
    "builder": frozenset({"mode", "factors", "k_gens", "generators", "closure_cap"}),
    "raw": frozenset({"mode", "rank", "form", "generators", "elements", "closure_cap"}),
}


def build_datum(doc) -> HyperellipticDatum:
    """Parse an input document (builder or raw mode) into a datum."""
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object")
    mode = doc.get("mode")
    if mode not in ("builder", "raw"):
        raise InputError(f"mode must be 'builder' or 'raw', got {mode!r}")
    _check_keys(doc, _DOCUMENT_KEYS[mode], f"a {mode} document")
    return _build_builder(doc) if mode == "builder" else _build_raw(doc)


def _unique_keys(pairs) -> dict:
    """object_pairs_hook for json: a key given twice is an error, not last-one-wins."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise InputError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def _json_int(text: str) -> int:
    """parse_int for json: an over-long integer literal is named by its length."""
    n = read_digits(text.removeprefix("-"), "integer literal")
    return -n if text.startswith("-") else n


def load_document(path: str) -> HyperellipticDatum:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys, parse_int=_json_int)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError, an over-long integer literal, a
        # duplicate key, or nesting deeper than the parser's recursion limit
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    return build_datum(doc)


# ---------------------------------------------------------------------------
# data -> reports

def _lattice_dict(lat: Sublattice, torus: TorusDatum) -> dict:
    return {
        "ambient_rank": lat.ambient_rank,
        "rank": lat.rank,
        "basis": [format_vector(lat.den, c) for c in lat.cols],
        "basis_product_coords": [
            format_vector(*torus.to_product_coords(lat.den, c)) for c in lat.cols
        ],
    }


def _group_dict(group, torus: TorusDatum) -> dict:
    return {
        "invariant_factors": list(group.invariant_factors),
        "order": group.order,
        "generators": [format_vector(*g) for g in group.generators],
        "generators_product_coords": [
            format_vector(*torus.to_product_coords(*g)) for g in group.generators
        ],
    }


def validation_dict(report: ValidationReport) -> dict:
    return {
        "passed": report.passed,
        "is_hyperelliptic": report.is_hyperelliptic,
        "group_order": report.group_order,
        "free": report.free,
        "fixed_point_elements": list(report.fixed_point_elements),
        "nonidentity_translations": list(report.nonidentity_translations),
        "form_invariant": report.form_invariant,
        "eigenvalues_consistent": report.eigenvalues_consistent,
        "faithful": report.faithful,
        "failures": list(report.failures()),
    }


def _factor_names(torus: TorusDatum, indices) -> list[str] | None:
    if indices is None or torus.factors is None:
        return None
    return [torus.factors[i].display_label() for i in indices]


def _fiber_description(fiber_class) -> str:
    if fiber_class.kind == "abelian":
        return f"abelian of dimension {fiber_class.dim}"
    if fiber_class.holonomy_invariant_factors is not None:
        structure = " x ".join(f"Z/{d}" for d in fiber_class.holonomy_invariant_factors)
    else:
        structure = f"nonabelian of order {fiber_class.holonomy_order}"
    return f"hyperelliptic of dimension {fiber_class.dim} with holonomy {structure}"


def albanese_dict(report: AlbaneseReport, datum: HyperellipticDatum) -> dict:
    torus = datum.torus
    fiber_class = report.fiber_class
    out = {
        "dim": report.dim,
        "q": report.q,
        "group_order": report.group_order,
        "lambda0": _lattice_dict(report.decomposition.lambda0, torus),
        "lambda1": _lattice_dict(report.decomposition.lambda1, torus),
        "k": _group_dict(report.decomposition.k, torus),
        "k0": _group_dict(report.decomposition.k0, torus),
        "k1": _group_dict(report.decomposition.k1, torus),
        "albanese": {
            "dim": report.q,
            "lattice": _lattice_dict(report.albanese_lattice, torus),
            "isogeny_factors": list(report.albanese_isogeny_factors),
            "factor_names": _factor_names(torus, report.albanese_factor_indices),
        },
        "h": {
            "element_indices": list(report.subgroup_h),
            "order": len(report.subgroup_h),
        },
        "fiber": {
            "dim": fiber_class.dim,
            "kind": fiber_class.kind,
            "holonomy_order": fiber_class.holonomy_order,
            "cyclic": fiber_class.cyclic,
            "holonomy_invariant_factors": (
                list(fiber_class.holonomy_invariant_factors)
                if fiber_class.holonomy_invariant_factors is not None
                else None
            ),
            "element_orders": list(fiber_class.element_orders),
            "factor_names": _factor_names(torus, report.fiber_factor_indices),
            "description": _fiber_description(fiber_class),
        },
        "flags": {
            "builder_mode": datum.builder_mode,
            "j_stability_assumed": datum.j_stability_assumed,
        },
    }
    out["fiber_report"] = (
        albanese_dict(report.fiber_report, report.fiber) if report.fiber_report else None
    )
    return out


def invariants_dict(inv) -> dict:
    return {
        "dim": inv.dim,
        "q": inv.q,
        "group_order": inv.group_order,
        "cyclic": inv.cyclic,
        "canonical_order": inv.canonical_order,
        "euler_char_structure_sheaf": inv.euler_char_structure_sheaf,
        "hodge_rows": [list(row) for row in inv.diamond.rows()],
    }


def oracle_dict(survey, verdict) -> dict:
    return {
        "fixed_points": {
            "passed": survey.passed,
            "downgraded_from_formula_level": survey.downgraded,
            "checks": [
                {
                    "element": c.element_index,
                    "level": c.level,
                    "exhaustive": c.exhaustive,
                    "count": c.count,
                    "exact_has_fixed_point": c.exact_has_fixed_point,
                    "agrees": c.agrees,
                }
                for c in survey.checks
            ],
        },
        "fiber_count": {
            "passed": verdict.passed,
            "level": verdict.level,
            "fibers": verdict.fiber_count,
            "points_per_fiber": verdict.predicted_points_per_fiber,
            "witness": list(map(str, verdict.witness)) if verdict.witness else None,
        },
    }


def dumps_canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
