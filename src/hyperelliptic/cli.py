"""Command-line front end.

Exit codes: 0 success (``--help`` included), 1 I/O, parse or usage error,
2 mathematical validation failure, 3 internal consistency failure or any
other exception, reported as ``internal error: <ExceptionType>: <message>``,
so no traceback reaches the user.  Output is deterministic byte-for-byte for
a fixed input and flags, and each report, json or text, goes to stdout in
one write, so one that stdout cannot encode leaves no partial report.
"""

from __future__ import annotations

import argparse
import sys

from .action import validate
from .albanese import run_pipeline
from .documents import (
    InputError,
    _is_ascii_digits,
    albanese_dict,
    dumps_canonical,
    invariants_dict,
    load_document,
    validation_dict,
)
from .invariants import canonical_order, canonical_report, invariants_report
from .oracle import build_model, datum_denominator, fixed_point_survey, oracle_fiber_count

_MATH_ERRORS = (ValueError,)  # all domain errors subclass ValueError
# failed theorem-backed certificates (PipelineInvariantError, NotASubgroup,
# GroupInvariantError, CyclotomicInvariantError) subclass RuntimeError; the
# library has no assert statements, so AssertionError can only be a bug too
_INTERNAL_ERRORS = (RuntimeError, AssertionError)


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _write_lines(lines) -> None:
    """A text report in one write, as json's, so a report stdout cannot encode writes nothing."""
    sys.stdout.write("".join(f"{line}\n" for line in lines))


def _valid_datum(path: str):
    """The datum in the file; one that fails validation exits 2 through main."""
    datum = load_document(path)
    report = validate(datum)
    if not report.passed:
        raise ValueError("; ".join(report.failures()))
    return datum


def cmd_check(args) -> int:
    datum = load_document(args.path)
    report = validate(datum)
    payload = validation_dict(report)
    if args.format == "json":
        sys.stdout.write(dumps_canonical(payload))
    else:
        keys = ("passed", "is_hyperelliptic", "group_order", "free",
                "form_invariant", "eigenvalues_consistent", "faithful")
        _write_lines([f"{key}: {payload[key]}" for key in keys]
                     + [f"failure: {failure}" for failure in payload["failures"]])
    return 0 if report.passed else 2


def cmd_albanese(args) -> int:
    datum = _valid_datum(args.path)
    alb = run_pipeline(datum, recurse=args.recurse)
    payload = albanese_dict(alb, datum)
    diag = canonical_report(canonical_order(datum), alb.fiber_canonical_order)
    payload["canonical"] = {
        "x_order": diag.x_canonical_order,
        "fiber_order": diag.fiber_canonical_order,
        "pulled_back_from_albanese": diag.pulled_back_from_albanese,
    }
    if args.format == "json":
        sys.stdout.write(dumps_canonical(payload))
    else:
        _write_lines(_albanese_lines(payload) + [
            f"canonical orders: omega_X {diag.x_canonical_order}, "
            f"fiber {diag.fiber_canonical_order}; pulled back from Albanese: "
            f"{diag.pulled_back_from_albanese}"])
    return 0


def _albanese_lines(payload: dict, indent: str = "") -> list[str]:
    alb = payload["albanese"]
    h = payload["h"]
    fiber = payload["fiber"]
    lines = [
        f"{indent}dim X = {payload['dim']}, irregularity q = {payload['q']}, "
        f"|G| = {payload['group_order']}",
        f"{indent}K invariant factors: {payload['k']['invariant_factors']}",
        f"{indent}Albanese: dimension {alb['dim']}{_on_factors(alb['factor_names'])}, "
        f"isogeny factors over Lambda_0: {alb['isogeny_factors']}",
        f"{indent}H: order {h['order']}, element indices {h['element_indices']}",
        f"{indent}fiber: {fiber['description']}{_on_factors(fiber['factor_names'])}",
    ]
    if payload.get("fiber_report"):
        lines.append(f"{indent}fiber report:")
        lines += _albanese_lines(payload["fiber_report"], indent + "  ")
    return lines


def _on_factors(names) -> str:
    return f" on {' x '.join(names)}" if names else ""


def cmd_invariants(args) -> int:
    datum = _valid_datum(args.path)
    inv = invariants_report(datum)
    payload = invariants_dict(inv)
    if args.format == "json":
        sys.stdout.write(dumps_canonical(payload))
    else:
        _write_lines([
            f"dim X = {inv.dim}, q = {inv.q}, |G| = {inv.group_order}, cyclic = {inv.cyclic}",
            f"canonical order = {inv.canonical_order}, "
            f"chi(O_X) = {inv.euler_char_structure_sheaf}",
            "Hodge diamond:",
            inv.diamond.pretty(),
        ])
    return 0


def cmd_oracle(args) -> int:
    datum = _valid_datum(args.path)
    survey = fixed_point_survey(datum, level=args.level)
    alb = run_pipeline(datum)
    level = args.level or datum_denominator(datum)
    verdict = oracle_fiber_count(build_model(datum, level), alb)
    payload = {
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
    if args.format == "json":
        sys.stdout.write(dumps_canonical(payload))
    else:
        _write_lines(
            [f"fixed points: {'pass' if survey.passed else 'FAIL'}"
             f"{' (reduced levels)' if survey.downgraded else ''}"]
            + [f"  element {c.element_index}: count {c.count} at level {c.level}"
               f" ({'exhaustive' if c.exhaustive else 'one-sided'},"
               f" exact={c.exact_has_fixed_point})" for c in survey.checks]
            + [f"fiber count: {verdict.describe()}"]
        )
    return 0 if survey.passed and verdict.passed else 2


def cmd_catalog(args) -> int:
    # the only command that reads the catalog, so the only one that imports it
    from .catalog import UnknownEntry, get_entry, list_entries, run_entry

    if args.action == "list":
        _write_lines(list_entries())
        return 0
    if args.name is None:
        return _fail(1, f"catalog {args.action} needs an entry name")
    try:
        entry = get_entry(args.name)
    except UnknownEntry as exc:
        return _fail(1, f"unknown catalog entry: {exc}")
    if args.action == "run":
        diff = run_entry(args.name)
        if not diff:
            _write_lines([f"{args.name}: empty diff"])
            return 0
        sys.stdout.write(dumps_canonical({"entry": args.name, "diff": diff}))
        return 2
    sys.stdout.write(dumps_canonical(entry.document))  # export, the last choice
    return 0


def _level(text: str) -> int:
    """The --level value: a positive integer in ASCII digits, or a usage error."""
    if not _is_ascii_digits(text):
        raise argparse.ArgumentTypeError(f"invalid level {text!r}: not a run of digits 0-9")
    if 0 < (limit := sys.get_int_max_str_digits()) < len(text):
        raise argparse.ArgumentTypeError(
            f"invalid level: a number of {len(text)} digits, over the limit of {limit}")
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"invalid level {text}: must be positive")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperelliptic",
        description="Exact Albanese data of hyperelliptic varieties "
        "from rational lattice presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a datum file")
    p.add_argument("path")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("albanese", help="compute the Albanese report")
    p.add_argument("path")
    p.add_argument("--recurse", action="store_true",
                   help="recurse into hyperelliptic fibers")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_albanese)

    p = sub.add_parser("invariants", help="irregularity, Hodge diamond, canonical order")
    p.add_argument("path")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("oracle", help="brute-force torsion-level verification")
    p.add_argument("path")
    p.add_argument("--level", type=_level, default=None)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("catalog", help="built-in constructions")
    p.add_argument("action", choices=("list", "run", "export"))
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, an input error here
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except InputError as exc:
        return _fail(1, f"input error: {exc}")
    except UnicodeEncodeError as exc:  # a ValueError, but stdout's encoding is at fault
        return _fail(1, f"cannot write output: {exc}")
    except _INTERNAL_ERRORS as exc:
        return _fail(3, f"internal error: {exc}")
    except _MATH_ERRORS as exc:
        return _fail(2, f"invalid datum: {exc}")
    except Exception as exc:  # an exception no layer raises on purpose is a bug
        return _fail(3, f"internal error: {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    raise SystemExit(main())
