"""Memory a command leaves behind, read in a child forked per command.

CPython 3.11 pushes a freed tuple of size 20 onto its tuple freelist but
never pops one of that size, so every 20-entry tuple a command frees (a row
or a column of a rank-20 matrix, a rank-20 vector, a 20-row matrix) stays
allocated, up to 2000 of them at 184 B each, until the process exits.  The
benchmark's `peak_rss_mb` includes them, together with the harness parent's
heap layout, which moves with the checkout path; this script reads one
operation's own memory apart from that layout.

The parent imports `hyperelliptic.cli` and writes the stress-rank documents
of one seed with perfbench/stress.py, as `perfbench/run.py`'s parent does.
For each document and command it forks a child that runs the command
through `hyperelliptic.cli.main` with `--format json` and prints

    rss_kB   the growth of the child's RssAnon over the command
    parked   the free size-20 tuples on the freelist after the command less
             those before, as `sys._debugmallocstats()` counts them

With `--kernels` it prints instead, as one JSON object, the size-20
tuples each integer-matrix kernel leaves on the freelist when run once in
this process on a 20 x 20 unimodular matrix or a rank-20 lattice, its
result kept alive while they are counted; a kernel that builds only the
rows it returns leaves none.  Run it in a fresh interpreter: the freelist
holds at most 2000, so one that is full counts nothing.

With `--sites N` it forks a second child per command that runs it under
`tracemalloc` and prints the top N allocation sites (file:line of the
innermost frame, blocks and bytes) of the blocks that the `gc.collect()`
after the command releases, from snapshots taken before and after it.  A
full collection clears the tuple freelists, so the parked rows are among
them, as 200-byte blocks (184 B and the collector's header).

    PYTHONPATH=src python tests/row_churn.py [--seed N] [--point NAME] [--sites N]
    PYTHONPATH=src python tests/row_churn.py --kernels
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

import hyperelliptic.cli  # noqa: E402
from conftest import load_perfbench  # noqa: E402
from hyperelliptic import exactlin  # noqa: E402
from hyperelliptic.action import AffineAut, has_fixed_point  # noqa: E402
from hyperelliptic.torus import TorusDatum  # noqa: E402

COMMANDS = {
    "check": ["check"],
    "albanese": ["albanese", "--recurse"],
    "invariants": ["invariants"],
    "oracle": ["oracle"],
}
STRESS_RANK = {"m2-k2-base6": (2, 2, 6), "m2-k2-base8": (2, 2, 8)}


def free_tuples(size: int = 20) -> int | None:
    """Free tuples of ``size`` on the tuple freelist, or None where the interpreter prints none."""
    debug = getattr(sys, "_debugmallocstats", None)
    if debug is None:
        return None
    with tempfile.TemporaryFile() as fh:  # the statistics go to the C-level stderr
        sys.stderr.flush()
        saved = os.dup(2)
        os.dup2(fh.fileno(), 2)
        try:
            debug()
        finally:
            os.dup2(saved, 2)
            os.close(saved)
        fh.seek(0)
        text = fh.read().decode("ascii", "replace")
    found = re.search(rf"^\s*(\d+) free {size}-sized PyTupleObjects", text, re.MULTILINE)
    return int(found.group(1)) if found else None


def parked_by(call) -> tuple[object, int | None]:
    """call()'s result and the size-20 tuples it left on the freelist, counted while it lives."""
    before = free_tuples()
    result = call()
    after = free_tuples()
    return result, None if before is None else after - before


def kernel_rows(n: int = 20) -> dict[str, int | None]:
    """The size-20 tuples each kernel leaves, on an n x n unimodular u and a rank-n lattice."""
    lower = [[int(i == j) if j >= i else (3 * i + j) % 5 - 2 for j in range(n)] for i in range(n)]
    upper = [[int(i == j) if j <= i else (i + 2 * j) % 3 - 1 for j in range(n)] for i in range(n)]
    u = exactlin.mat_mul(lower, upper)
    gens = [[2 * x for x in row] for row in u] + [[i % 2 for i in range(n)]]  # Z^n + Z w / 2
    lattice = exactlin.Sublattice.from_int_columns(n, gens, 2)
    torus = TorusDatum(lattice)
    element = AffineAut(u, 2, tuple(i % 2 for i in range(n)), None)
    calls = {
        "mat_mul": lambda: exactlin.mat_mul(u, u),
        "column_hermite": lambda: exactlin.column_hermite(u),
        "is_unimodular": lambda: exactlin.is_unimodular(u),
        "smith_normal_form": lambda: exactlin.smith_normal_form(u),
        "Sublattice.from_int_columns": lambda: exactlin.Sublattice.from_int_columns(n, gens, 2),
        "kernel_lattice": lambda: exactlin.kernel_lattice(u[:4]),
        "has_fixed_point": lambda: has_fixed_point(element),
        "TorusDatum.to_product_coords": lambda: torus.to_product_coords(2, u[0]),
    }
    return {name: parked_by(call)[1] for name, call in calls.items()}


def rss_anon_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("RssAnon:"))


def _run(argv) -> None:
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        hyperelliptic.cli.main(argv)
    except SystemExit:
        pass
    finally:
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__


def _measure(argv) -> dict:
    rss, parked = rss_anon_kb(), free_tuples()
    _run(argv)
    after = free_tuples()
    return {"rss_kB": rss_anon_kb() - rss,
            "parked": None if parked is None else after - parked}


def _released_sites(argv, n: int) -> list[tuple[str, int, int]]:
    gc.collect()
    tracemalloc.start()
    _run(argv)
    before = tracemalloc.take_snapshot()
    gc.collect()
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    released = sorted((s for s in after.compare_to(before, "lineno") if s.size_diff < 0),
                      key=lambda s: s.size_diff)
    return [(f"{Path(s.traceback[0].filename).name}:{s.traceback[0].lineno}",
             -s.count_diff, -s.size_diff) for s in released[:n]]


def in_child(work, *args):
    """work(*args) in a forked child; its JSON-able result comes back through a pipe."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            with os.fdopen(write_fd, "w") as fh:
                json.dump(work(*args), fh)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        payload = fh.read()
    os.waitpid(pid, 0)
    return json.loads(payload)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--point", choices=sorted(STRESS_RANK), action="append")
    parser.add_argument("--sites", type=int, default=0, metavar="N")
    parser.add_argument("--kernels", action="store_true")
    args = parser.parse_args()
    if args.kernels:
        print(json.dumps(kernel_rows()))
        return
    stress = load_perfbench("stress")
    with tempfile.TemporaryDirectory() as folder:
        paths = {}
        for point in args.point or sorted(STRESS_RANK):
            m, k, base = STRESS_RANK[point]
            paths[point] = Path(folder) / f"{point}.json"
            paths[point].write_text(json.dumps(stress.stress_document(m, k, base, args.seed),
                                               indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{'document':<14} {'command':<11} {'rss_kB':>7} {'parked':>7}")
        for point, path in paths.items():
            for command, words in COMMANDS.items():
                argv = words + [str(path), "--format", "json"]
                got = in_child(_measure, argv)
                print(f"{point:<14} {command:<11} {got['rss_kB']:>7} {got['parked']!s:>7}",
                      flush=True)
                if args.sites:
                    for site, count, size in in_child(_released_sites, argv, args.sites):
                        print(f"    {site:<28} {count:>6} blocks {size:>9} B released")


if __name__ == "__main__":
    main()
