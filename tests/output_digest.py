"""One sha256 over every CLI output on a fixed set of documents.

Runs `check`, `albanese`, `albanese --recurse`, `invariants` and `oracle`,
each in json and text format, in process, on 234 documents: the catalog
entries, the stress points (3,3,2), (2,4,2), (2,2,6), (2,2,8), (3,4,2) and
(2,2,10) at seeds 0-3, the 192 `three_curve_document` sweep documents, the
D4 threefold and `z4-threefold` as a raw document in the superdiagonal
lattice basis, every element listed with its eigenvalues, whose Albanese
fiber is not aligned with the factors, so `albanese --recurse` writes that
fiber in its Hermite basis.  On each catalog entry and the D4 threefold it
also runs `oracle --level L`, in both formats, at L = 2D and at L = 2D + 1,
where D is the datum's translation denominator (`oracle.datum_denominator`):
the first level is valid and D does not divide the second, so the
given-level path and its `BadLevel` refusal are covered too.  An output is
the exit code, stdout and stderr.  Two checkouts whose reports are
byte-identical print the same count and digest, so a refactor that must not
change any report is checked by running this in both.  It is a script, not
a collected test, because it takes about half a minute.

    PYTHONPATH=src python tests/output_digest.py [--each] [--expect SHA256]

`--each` also prints one digest per output, to find the ones that differ.
`--expect SHA256` compares the digest with a known one, such as the digest
printed in the other checkout: when they differ, the script prints both and
exits 1, so the byte-identity check is one command.
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

from hyperelliptic.catalog import get_entry, list_entries  # noqa: E402
from hyperelliptic.cli import main  # noqa: E402
from hyperelliptic.documents import build_datum  # noqa: E402
from hyperelliptic.oracle import datum_denominator  # noqa: E402

STRESS_POINTS = ((3, 3, 2), (2, 4, 2), (2, 2, 6), (2, 2, 8), (3, 4, 2), (2, 2, 10))
COMMANDS = (["check"], ["albanese"], ["albanese", "--recurse"], ["invariants"], ["oracle"])


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


def commands(name: str, doc) -> tuple[list[str], ...]:
    """COMMANDS, and on a catalog entry or the D4 threefold `oracle --level` at 2D and 2D + 1."""
    if name not in {*list_entries(), "d4-threefold"}:
        return COMMANDS
    den = datum_denominator(build_datum(doc))
    return COMMANDS + tuple(["oracle", "--level", str(level)] for level in (2 * den, 2 * den + 1))


def outputs(path: Path):
    """(label, output digest) for every command and format on every document."""
    for name, doc in documents():
        path.write_text(json.dumps(doc))
        for command, fmt in itertools.product(commands(name, doc), ("json", "text")):
            argv = [command[0], str(path), *command[1:], "--format", fmt]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            record = json.dumps([code, out.getvalue(), err.getvalue()])
            yield f"{name} {' '.join(command)} {fmt}", hashlib.sha256(record.encode()).hexdigest()


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--each", action="store_true", help="print one digest per output")
    parser.add_argument("--expect", metavar="SHA256", help="exit 1 unless the digest is this one")
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for label, digest in outputs(Path(tmp) / "datum.json"):
            if args.each:
                print(digest, label)
            total.update(f"{digest} {label}\n".encode())
            count += 1
    digest = total.hexdigest()
    print(f"{count} outputs, sha256 {digest}")
    if args.expect is not None and digest != args.expect:
        print(f"digest differs: expected {args.expect}, got {digest}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
