"""One sha256 over every CLI output on a fixed set of documents.

Runs `check`, `albanese`, `albanese --recurse`, `invariants` and `oracle`,
each in json and text format, in process, on 236 documents: the catalog
entries, the stress points (3,3,2), (2,4,2), (2,2,6), (2,2,8), (3,4,2) and
(2,2,10) at seeds 0-3, the 192 `three_curve_document` sweep documents, the
D4 threefold, `z4-threefold` as a raw document in the superdiagonal lattice
basis, every element listed with its eigenvalues, whose Albanese fiber is
not aligned with the factors, so `albanese --recurse` writes that fiber in
its Hermite basis, `z4-threefold` with its rationals spelled as decimals,
and `small-irregularity-cyclic` with one more generic factor, at rank 10,
whose split grid at the formula level 36 is over the oracle's cap, so the
fixed-point survey falls back to each element's own level.  On each catalog
entry and the D4 threefold it also runs `oracle --level L`, in both
formats, at L = 2D and at L = 2D + 1, where D is the datum's translation
denominator (`oracle.datum_denominator`): the first level is valid and D
does not divide the second, so the given-level path and its refusal of a
level are covered too; on `z4-threefold` it also runs `oracle --level 400`,
whose split grid is over the point cap.  It then runs `check`, in both
formats, on each document of `MALFORMED` and `MALFORMED_JSON`, one for each
refusal a document can reach, a reached closure cap among them.  An output
is the exit code, stdout and stderr, with the temporary file's name read as
FILE.  Two checkouts whose reports are byte-identical print the same count
and digest, so a refactor that must not change any report is checked by
running this in both.

    PYTHONPATH=src python tests/output_digest.py [--each] [--expect SHA256]

`--each` also prints one digest per output, to find the ones that differ.
`--expect SHA256` compares the digest with a known one, such as the digest
printed in the other checkout: when they differ, the script prints both and
exits 1, so the byte-identity check is one command.  `RECORDED` is the
digest of the reports as they stand, and `tests/test_output_digest.py`
checks it, so a change to any report byte fails the tests; a change meant to
alter reports records the new digest here.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

from conftest import load_perfbench  # noqa: E402
from helpers import base_change, conjugated, raw_document, three_curve_document  # noqa: E402
from test_nonabelian import D4_THREEFOLD  # noqa: E402

from hyperelliptic.action import MAX_CLOSURE_CAP, MAX_RANK  # noqa: E402
from hyperelliptic.catalog import get_entry, list_entries  # noqa: E402
from hyperelliptic.cli import main  # noqa: E402
from hyperelliptic.documents import build_datum  # noqa: E402
from hyperelliptic.oracle import datum_denominator  # noqa: E402

STRESS_POINTS = ((3, 3, 2), (2, 4, 2), (2, 2, 6), (2, 2, 8), (3, 4, 2), (2, 2, 10))
COMMANDS = (["check"], ["albanese"], ["albanese", "--recurse"], ["invariants"], ["oracle"])
RECORDED = "29b44e6ee50b7878d0b801137b703433d7e5c4999f173036d89815e8a5c52719"
LONG = "9" * 5000  # a run of digits past int()'s default conversion limit of 4300

# (z0 + 1/2, -z1) and -z + (0, 1/2): well-formed, the bases of the malformed documents
BUILDER = {
    "mode": "builder",
    "factors": [{"kind": "generic"}, {"kind": "generic"}],
    "generators": [{"zetas": ["1", "-1"], "translation": ["1/2", "0", "0", "0"]}],
}
RAW = {
    "mode": "raw",
    "rank": 2,
    "form": [["0", "1"], ["-1", "0"]],
    "generators": [{"matrix": [[-1, 0], [0, -1]], "translation": ["0", "1/2"],
                    "eigenvalues": ["-1"]}],
}


def _generator(doc, **changes) -> dict:
    return dict(doc, generators=[dict(doc["generators"][0], **changes)])


def _rational(text) -> dict:
    return _generator(RAW, translation=[text, "1/2"])


def _label(text) -> dict:
    return _generator(BUILDER, zetas=[text, "-1"])


def _element(**spec) -> dict:
    return dict(RAW, elements=[{"eigenvalues": ["-1"], **spec}])


# one document for each refusal a document can reach, each bad rational and
# label form and a reached closure cap among them; `check` runs on each
MALFORMED = {
    **{f"rational-{name}": _rational(text) for name, text in (
        ("underscore", "1_0/3"), ("fullwidth-digit", "\uff11/2"), ("nbsp", "\xa01/2"),
        ("exponent", "1e3"), ("inner-space", "1 /2"), ("empty", ""), ("dot", "."),
        ("double-sign", "--1"), ("trailing", "3.5x"), ("two-slashes", "1/2/3"),
        ("decimal-over", ".5/2"), ("zero-denominator", "1/0"), ("bool", True), ("float", 0.5),
        ("long-numerator", "1" + LONG), ("long-denominator", "1/" + LONG),
        ("long-decimal", "0." + LONG),
    )},
    "vector-not-a-list": _generator(RAW, translation="0"),
    "vector-length": _generator(RAW, translation=["0"]),
    **{f"label-{name}": _label(text) for name, text in (
        ("unknown", "omega"), ("no-order", "zeta"), ("no-exponent", "zeta4^"),
        ("plus-exponent", "zeta4^+1"), ("underscore", "zeta1_2"), ("fullwidth-digit", "zeta\uff14"),
        ("inner-space", "zeta 4"), ("letter-exponent", "zeta4^x"),
        ("int", 4), ("zero-order", "zeta0"), ("long-order", "zeta" + LONG),
        ("long-exponent", "zeta4^-" + LONG),
    )},
    "unknown-key-builder": dict(BUILDER, bogus=1),
    "unknown-key-raw": dict(RAW, bogus=1),
    "unknown-key-factor": dict(BUILDER, factors=[{"kind": "generic", "bogus": 1}] * 2),
    "unknown-key-generator": _generator(BUILDER, bogus=1),
    "unknown-key-element": _element(matrix=[[1, 0], [0, 1]], bogus=1),
    "not-an-object": [RAW],
    "mode-unknown": dict(RAW, mode="nope"),
    "factors-not-a-list": dict(BUILDER, factors=5),
    "factors-empty": dict(BUILDER, factors=[]),
    "factors-over-rank": dict(BUILDER, factors=[{"kind": "generic"}] * (MAX_RANK // 2 + 1)),
    "factor-no-kind": dict(BUILDER, factors=[{"label": "a"}] * 2),
    "factor-kind-unknown": dict(BUILDER, factors=[{"kind": "hexagonal"}] * 2),
    "factor-label-int": dict(BUILDER, factors=[{"kind": "generic", "label": 5}] * 2),
    "generator-not-an-object": dict(BUILDER, generators=[5]),
    "generator-zetas-and-blocks": _generator(BUILDER, blocks=[]),
    "generator-neither": dict(BUILDER, generators=[{"translation": ["0"] * 4}]),
    "zetas-count": _generator(BUILDER, zetas=["1"]),
    "blocks-count": dict(BUILDER, generators=[{"blocks": [[[1, 0], [0, 1]]]}]),
    "block-rows": dict(BUILDER, generators=[{"blocks": [[[1, 0]]] * 2}]),
    "block-row-length": dict(BUILDER, generators=[{"blocks": [[[1, 0], [0]]] * 2}]),
    "block-entry-float": dict(BUILDER, generators=[{"blocks": [[[1.0, 0], [0, 1]]] * 2}]),
    "closure-cap-string": dict(BUILDER, closure_cap="abc"),
    "closure-cap-over": dict(RAW, closure_cap=MAX_CLOSURE_CAP + 1),
    "closure-cap-reached": dict(get_entry("z4-threefold").document, closure_cap=2),
    "rank-zero": dict(RAW, rank=0),
    "rank-odd": dict(RAW, rank=3),
    "rank-over": dict(RAW, rank=MAX_RANK + 2),
    "form-missing": {key: value for key, value in RAW.items() if key != "form"},
    "form-size": dict(RAW, form=[["0", "1"]]),
    "element-no-matrix": _element(),
    "element-eigenvalue-count": _element(matrix=[[1, 0], [0, 1]], eigenvalues=[]),
    "element-eigenvalues-differ": _element(matrix=[[-1, 0], [0, -1]], eigenvalues=["1"]),
    "element-matrix-not-in-group": _element(matrix=[[0, -1], [1, 0]], eigenvalues=["i"]),
    "element-translation-not-in-group": _element(matrix=[[-1, 0], [0, -1]],
                                                 translation=["1/2", "0"]),
}
# refusals of the file's JSON itself, as text
MALFORMED_JSON = {
    "json-duplicate-key": '{"mode": "raw", "mode": "raw"}',
    "json-long-integer": json.dumps(RAW).replace('"rank": 2', '"rank": 1' + LONG),
    "json-invalid": "not json at all",
    "json-deep-nesting": "[" * 100_000,
}


def documents():
    """(name, document) pairs, in a fixed order."""
    for name in list_entries():
        yield name, get_entry(name).document
    stress = load_perfbench("stress")
    for (m, k, base), seed in itertools.product(STRESS_POINTS, range(4)):
        yield f"stress-m{m}-k{k}-base{base}-seed{seed}", stress.stress_document(m, k, base, seed)
    for k_gen in itertools.product(("0", "1/2"), repeat=6):
        for translation in (("1/2", "0"), ("1/2", "1/2"), ("0", "1/2")):
            name = f"sweep-{'_'.join(k_gen)}-{'_'.join(translation)}"
            yield name, three_curve_document(k_gen, translation)
    yield "d4-threefold", D4_THREEFOLD
    z4 = get_entry("z4-threefold").build()
    u = base_change("superdiagonal", z4.rank, "z4-threefold")
    yield "z4-threefold-superdiagonal", raw_document(conjugated(z4, u))
    yield "z4-threefold-decimal", decimal_spelling(get_entry("z4-threefold").document)
    yield "small-irregularity-cyclic-rank10", with_generic_factor(
        get_entry("small-irregularity-cyclic").document
    )


def decimal_spelling(doc) -> dict:
    """The document with 0, 1/2 and 1/4 spelled as the decimals "0.", "0.5" and ".25"."""
    text = json.dumps(doc)
    for rational, decimal in (("0", "0."), ("1/2", "0.5"), ("1/4", ".25")):
        text = text.replace(f'"{rational}"', f'"{decimal}"')
    return json.loads(text)


def with_generic_factor(doc) -> dict:
    """A builder document with one more generic factor, on which every generator is the identity."""
    return dict(
        doc,
        factors=[*doc["factors"], {"kind": "generic", "label": "sigma1"}],
        generators=[
            dict(g, zetas=[*g["zetas"], "1"], translation=[*g["translation"], "0", "0"])
            for g in doc["generators"]
        ],
    )


def commands(name: str, doc) -> tuple[list[str], ...]:
    """COMMANDS, and on a catalog entry or the D4 threefold `oracle --level` at 2D and 2D + 1.

    On `z4-threefold` also `oracle --level 400`, over the point cap.
    """
    if name not in {*list_entries(), "d4-threefold"}:
        return COMMANDS
    den = datum_denominator(build_datum(doc))
    levels = (2 * den, 2 * den + 1, *((400,) if name == "z4-threefold" else ()))
    return COMMANDS + tuple(["oracle", "--level", str(level)] for level in levels)


def cases():
    """(name, file text, command) for every run, in a fixed order: `check` alone on MALFORMED."""
    for name, doc in documents():
        text = json.dumps(doc)
        for command in commands(name, doc):
            yield name, text, command
    malformed = {name: json.dumps(doc) for name, doc in MALFORMED.items()} | MALFORMED_JSON
    for name, text in malformed.items():
        yield f"malformed-{name}", text, ["check"]


def outputs(path: Path):
    """(label, output digest) for every command and format on every document."""
    for name, text, command in cases():
        path.write_text(text)
        for fmt in ("json", "text"):
            argv = [command[0], str(path), *command[1:], "--format", fmt]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            # a refusal of the file's JSON names the file: read it as the same name in every run
            record = json.dumps([code, out.getvalue(), err.getvalue().replace(str(path), "FILE")])
            yield f"{name} {' '.join(command)} {fmt}", hashlib.sha256(record.encode()).hexdigest()


def total_digest(each=False) -> tuple[int, str]:
    """(number of outputs, sha256 over every output's digest and label); each prints them."""
    total = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for label, digest in outputs(Path(tmp) / "datum.json"):
            if each:
                print(digest, label)
            total.update(f"{digest} {label}\n".encode())
            count += 1
    return count, total.hexdigest()


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--each", action="store_true", help="print one digest per output")
    parser.add_argument("--expect", metavar="SHA256", help="exit 1 unless the digest is this one")
    args = parser.parse_args(argv)
    count, digest = total_digest(args.each)
    print(f"{count} outputs, sha256 {digest}")
    if args.expect is not None and digest != args.expect:
        print(f"digest differs: expected {args.expect}, got {digest}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
