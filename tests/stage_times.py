"""Wall time of each library stage, in process, on the stress points and on copies of a threefold.

For each point it builds the datum from its document and runs the four
stages in order: `build_datum`, `validate`, `run_pipeline(recurse=True)` and
`invariants_report`.  It does this twice, each time from the document, and
prints the minimum and maximum of the two times of each stage, in seconds.
The points are the stress documents (3,4,2), (3,5,3) and (2,8,4) at seed 0
and 3 and 4 copies of `z2z2-threefold` side by side, each copy's group
acting on its own factors.  `--point M,K,BASE` and `--copies C` add more,
and may be repeated.  The process first pins itself, and nothing else, to
the last CPU it may run on, so every run shares one core.  It is a script,
not a collected test, because the larger points take seconds.

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

from hyperelliptic.action import validate  # noqa: E402
from hyperelliptic.albanese import run_pipeline  # noqa: E402
from hyperelliptic.catalog import get_entry  # noqa: E402
from hyperelliptic.documents import build_datum  # noqa: E402
from hyperelliptic.invariants import invariants_report  # noqa: E402

STRESS_POINTS = ((3, 4, 2), (3, 5, 3), (2, 8, 4))
COPIES = (3, 4)
STAGES = ("build_datum", "validate", "run_pipeline", "invariants_report")
RUNS = 2


def stage_times(doc) -> tuple[float, ...]:
    """Seconds each stage takes on a datum built afresh from doc."""
    times = []
    start = time.perf_counter()
    d = build_datum(doc)
    times.append(time.perf_counter() - start)
    for stage in (validate, lambda x: run_pipeline(x, recurse=True), invariants_report):
        start = time.perf_counter()
        stage(d)
        times.append(time.perf_counter() - start)
    return tuple(times)


def point(text: str) -> tuple[int, int, int]:
    try:
        m, k, base = map(int, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected M,K,BASE, got {text!r}") from None
    return m, k, base


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--point", type=point, action="append", default=[],
                        help="another stress point M,K,BASE at seed 0")
    parser.add_argument("--copies", type=int, action="append", default=[],
                        help="another number of z2z2-threefold copies")
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    stress = load_perfbench("stress")
    cases = [(f"stress {m},{k},{base}", stress.stress_document(m, k, base, 0))
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
