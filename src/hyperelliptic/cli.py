"""Command-line front end.

A run ends in one of four outcomes.  A failure prints one line to stderr,
and each library error class (`errors`) carries its exit code and prefix:

- success: exit 0 (``--help`` included);
- an input error: exit 1, ``input error: <message>`` for a file that cannot
  be read or a malformed document (``InputError``); argparse's usage message
  for a bad command line, ``unknown catalog entry: <name>``, or ``cannot
  write output: <message>`` when stdout cannot encode the report;
- a mathematical failure: exit 2, ``invalid datum: <message>`` for a
  well-formed document that fails a condition (``InvalidDatum``), or ``cap
  reached: <cap> <value>, <what needed more>`` (``CapReached``) when a
  resource cap stops the run before it can decide;
- an internal bug: exit 3, ``internal error: <message>`` for a failed
  theorem-backed certificate or a failed precondition on data the library
  made (``InternalError``), or ``internal error: <ExceptionType>:
  <message>`` for any other exception, so no traceback reaches the user.

``check``, ``oracle`` and ``catalog run`` also exit 2, with their report on
stdout, when the datum fails validation, the oracle's verdict fails or the
entry's diff is not empty.  Output is deterministic byte-for-byte for a
fixed input and flags.  Each command builds one JSON payload (`documents`);
``--format json`` writes it with `dumps_canonical`, and ``--format text`` is
a rendering of that payload, read from it alone.  Each report goes to stdout
in one write, so one that stdout cannot encode leaves no partial report.
"""

from __future__ import annotations

import argparse
import sys

from .action import validate
from .albanese import run_pipeline
from .documents import (
    albanese_dict,
    dumps_canonical,
    invariants_dict,
    load_document,
    oracle_dict,
    read_digits,
    validation_dict,
)
from .errors import CapReached, InputError, InternalError, InvalidDatum
from .invariants import canonical_order, canonical_report, invariants_report
from .oracle import build_model, datum_denominator, fixed_point_survey, oracle_fiber_count


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _write(fmt: str, payload, render=list) -> None:
    """The one write of a report: the payload's json, or the text lines render reads off it."""
    if fmt == "json":
        sys.stdout.write(dumps_canonical(payload))
    else:
        sys.stdout.write("".join(f"{line}\n" for line in render(payload)))


def _valid_datum(path: str):
    """The datum in the file; one that fails validation exits 2 through main."""
    datum = load_document(path)
    report = validate(datum)
    if not report.passed:
        raise InvalidDatum("; ".join(report.failures()))
    return datum


def check_text(payload) -> list[str]:
    keys = ("passed", "is_hyperelliptic", "group_order", "free",
            "form_invariant", "eigenvalues_consistent", "faithful")
    return ([f"{key}: {payload[key]}" for key in keys]
            + [f"failure: {failure}" for failure in payload["failures"]])


def cmd_check(args) -> int:
    report = validate(load_document(args.path))
    _write(args.format, validation_dict(report), check_text)
    return 0 if report.passed else 2


def albanese_text(payload, indent: str = "") -> list[str]:
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
    if payload["fiber_report"]:
        lines.append(f"{indent}fiber report:")
        lines += albanese_text(payload["fiber_report"], indent + "  ")
    if "canonical" in payload:  # the top level's alone
        canonical = payload["canonical"]
        lines.append(f"canonical orders: omega_X {canonical['x_order']}, "
                     f"fiber {canonical['fiber_order']}; pulled back from Albanese: "
                     f"{canonical['pulled_back_from_albanese']}")
    return lines


def _on_factors(names) -> str:
    return f" on {' x '.join(names)}" if names else ""


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
    _write(args.format, payload, albanese_text)
    return 0


def invariants_text(payload) -> list[str]:
    rows = payload["hodge_rows"]
    width = max(len(str(x)) for row in rows for x in row) + 2
    return [
        f"dim X = {payload['dim']}, q = {payload['q']}, |G| = {payload['group_order']}, "
        f"cyclic = {payload['cyclic']}",
        f"canonical order = {payload['canonical_order']}, "
        f"chi(O_X) = {payload['euler_char_structure_sheaf']}",
        "Hodge diamond:",
    ] + ["".join(str(x).center(width) for x in row).center(len(rows) * width).rstrip()
         for row in rows]


def cmd_invariants(args) -> int:
    inv = invariants_report(_valid_datum(args.path))
    _write(args.format, invariants_dict(inv), invariants_text)
    return 0


def oracle_text(payload) -> list[str]:
    fixed, fibers = payload["fixed_points"], payload["fiber_count"]
    if fibers["passed"]:
        verdict = (f"pass: {fibers['fibers']} fibers of {fibers['points_per_fiber']} "
                   f"points each at level {fibers['level']}")
    else:
        key, count = fibers["witness"]
        verdict = f"fail at level {fibers['level']}: fiber {key} has {count} points"
    return (
        [f"fixed points: {'pass' if fixed['passed'] else 'FAIL'}"
         f"{' (reduced levels)' if fixed['downgraded_from_formula_level'] else ''}"]
        + [f"  element {c['element']}: count {c['count']} at level {c['level']}"
           f" ({'exhaustive' if c['exhaustive'] else 'one-sided'},"
           f" exact={c['exact_has_fixed_point']})" for c in fixed["checks"]]
        + [f"fiber count: {verdict}"]
    )


def cmd_oracle(args) -> int:
    datum = _valid_datum(args.path)
    survey = fixed_point_survey(datum, level=args.level)
    alb = run_pipeline(datum)
    level = args.level or datum_denominator(datum)
    verdict = oracle_fiber_count(build_model(datum, level), alb)
    _write(args.format, oracle_dict(survey, verdict), oracle_text)
    return 0 if survey.passed and verdict.passed else 2


def cmd_catalog(args) -> int:
    # the only command that reads the catalog, so the only one that imports it
    from .catalog import UnknownEntry, get_entry, list_entries, run_entry

    if args.action == "list":
        _write("text", list_entries())  # one name a line
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
            _write("text", [f"{args.name}: empty diff"])
            return 0
        _write("json", {"entry": args.name, "diff": diff})
        return 2
    _write("json", entry.document)  # export, the last choice
    return 0


def _level(text: str) -> int:
    """The --level value: a positive integer in ASCII digits, or a usage error."""
    if not (text.isascii() and text.isdigit()):  # int() also reads "1_0", " 4" and "\u0664"
        raise argparse.ArgumentTypeError(f"invalid level {text!r}: not a run of digits 0-9")
    try:
        level = read_digits(text, "invalid level")
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if level < 1:
        raise argparse.ArgumentTypeError(f"invalid level {text}: must be positive")
    return level


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperelliptic",
        description="Exact Albanese data of hyperelliptic varieties "
        "from rational lattice presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, func, options in (
        ("check", "validate a datum file", cmd_check, {}),
        ("albanese", "compute the Albanese report", cmd_albanese,
         {"--recurse": {"action": "store_true", "help": "recurse into hyperelliptic fibers"}}),
        ("invariants", "irregularity, Hodge diamond, canonical order", cmd_invariants, {}),
        ("oracle", "brute-force torsion-level verification", cmd_oracle,
         {"--level": {"type": _level}}),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("path")
        for flag, settings in options.items():
            p.add_argument(flag, **settings)
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.set_defaults(func=func)

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
    except (InputError, InvalidDatum, CapReached, InternalError) as exc:
        return _fail(exc.exit_code, f"{exc.prefix}: {exc}")
    except UnicodeEncodeError as exc:  # stdout's encoding is at fault, not the datum
        return _fail(1, f"cannot write output: {exc}")
    except Exception as exc:  # an exception no layer raises on purpose is a bug
        return _fail(3, f"internal error: {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    raise SystemExit(main())
