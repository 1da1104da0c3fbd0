"""Wall time of each library stage, in process, on the stress points and on copies of a threefold.

For each point it builds the datum from its document and runs the four
stages in order: `build_datum`, `validate`, `run_pipeline(recurse=True)` and
`invariants_report`.  It does this twice, each time from the document, and
prints the minimum and maximum of the two times of each stage, in seconds.
The `freeness` column is the part of `validate` spent in `has_fixed_point`,
timed by rebinding `action.has_fixed_point`, which `validate` looks up at
each call, in this process only.
The points are the stress documents (3,4,2), (3,5,3), (2,8,4), (3,7,4) and
(3,8,4) at seed 0, the last two of order 2187 and 6561, and 3 and 4 copies
of `z2z2-threefold` side by side, each copy's group acting on its own
factors.  `--point M,K,BASE` and `--copies C` add more,
and may be repeated.  A stress point's group has order M^K; past the default
closure cap its document asks for a cap of M^K, which must be at most the
largest cap a document may ask for.  The process first pins itself, and
nothing else, to the last CPU it may run on, so every run shares one core.
It is a script, not a collected test, because the larger points take
seconds.

    PYTHONPATH=src python tests/stage_times.py [--point M,K,BASE] [--copies C]
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

from conftest import load_perfbench  # noqa: E402
from helpers import side_by_side  # noqa: E402

from hyperelliptic import action  # noqa: E402
from hyperelliptic.action import DEFAULT_CLOSURE_CAP, MAX_CLOSURE_CAP, validate  # noqa: E402
from hyperelliptic.albanese import run_pipeline  # noqa: E402
from hyperelliptic.catalog import get_entry  # noqa: E402
from hyperelliptic.documents import build_datum  # noqa: E402
from hyperelliptic.invariants import invariants_report  # noqa: E402

STRESS_POINTS = ((3, 4, 2), (3, 5, 3), (2, 8, 4), (3, 7, 4), (3, 8, 4))
COPIES = (3, 4)
STAGES = ("build_datum", "validate", "freeness", "run_pipeline", "invariants_report")
RUNS = 2

_has_fixed_point = action.has_fixed_point
_freeness = [0.0]  # seconds in has_fixed_point since the last reset


def _timed_has_fixed_point(a):
    start = time.perf_counter()
    try:
        return _has_fixed_point(a)
    finally:
        _freeness[0] += time.perf_counter() - start


def stage_times(doc) -> tuple[float, ...]:
    """Seconds each stage takes on a datum built afresh from doc, and validate's freeness share."""
    times = []
    start = time.perf_counter()
    d = build_datum(doc)
    times.append(time.perf_counter() - start)
    for stage in (validate, lambda x: run_pipeline(x, recurse=True), invariants_report):
        _freeness[0] = 0.0
        start = time.perf_counter()
        stage(d)
        times.append(time.perf_counter() - start)
        if stage is validate:
            times.append(_freeness[0])
    return tuple(times)


def point(text: str) -> tuple[int, int, int]:
    try:
        m, k, base = map(int, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected M,K,BASE, got {text!r}") from None
    # k is bounded first, so m**k is never a huge number (m is 2 or 3)
    if k > MAX_CLOSURE_CAP.bit_length() or m**k > MAX_CLOSURE_CAP:
        raise argparse.ArgumentTypeError(
            f"a group of order {m}^{k} is over the largest closure cap {MAX_CLOSURE_CAP}")
    return m, k, base


def stress_point(stress, m: int, k: int, base: int) -> dict:
    """The stress document at seed 0, with a closure cap of |G| = m^k when the default is less."""
    doc = stress.stress_document(m, k, base, 0)
    if m**k > DEFAULT_CLOSURE_CAP:
        doc["closure_cap"] = m**k
    return doc


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--point", type=point, action="append", default=[],
                        help="another stress point M,K,BASE at seed 0")
    parser.add_argument("--copies", type=int, action="append", default=[],
                        help="another number of z2z2-threefold copies")
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    action.has_fixed_point = _timed_has_fixed_point
    stress = load_perfbench("stress")
    cases = [(f"stress {m},{k},{base}", stress_point(stress, m, k, base))
             for m, k, base in STRESS_POINTS + tuple(args.point)]
    threefold = get_entry("z2z2-threefold").document
    cases += [(f"z2z2-threefold x{c}", side_by_side(threefold, c))
              for c in COPIES + tuple(args.copies)]
    print(f"{'point':<22}" + "".join(f"{stage:>20}" for stage in STAGES))
    for label, doc in cases:
        runs = [stage_times(doc) for _ in range(RUNS)]
        cells = (f"{min(t):.4f}-{max(t):.4f}" for t in zip(*runs))
        print(f"{label:<22}" + "".join(f"{cell:>20}" for cell in cells), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
