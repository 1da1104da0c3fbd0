"""End-to-end and per-layer benchmark of the hyperelliptic command line.

Run from the repository root:

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 20 --trace 0

Each operation is one CLI command (`check`, `albanese --recurse`,
`invariants` or `oracle`, all with `--format json`) on one generated
document, run through `hyperelliptic.cli.main` in a child forked from a
parent that has only imported the CLI, so nothing one operation computes is
visible to the next.  Load is a closed loop with one caller: the next
operation starts after the previous child has exited.  A pass runs every
document of the workload through all four commands, in an order the seed
shuffles; passes repeat until `--seconds` have gone by.

Every operation is checked: its exit code, the sha256 of its stdout against
`golden.json` where a golden exists, and for stress documents the
closed-form values in `stress.expected`.  The last stdout line is one JSON
object with the end-to-end metrics (`--trace 0`) or the per-layer metrics
(`--trace 1`).  `--record-golden` rewrites `golden.json` from the program as
it stands.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import pickle
import random
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import stress
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
SPEC = ROOT / "BENCHMARK.json"  # names and units of the metrics in the result line

COMMANDS = {
    "check": ["check"],
    "albanese": ["albanese", "--recurse"],
    "invariants": ["invariants"],
    "oracle": ["oracle"],
}
# stress point name -> (m, k, base)
STRESS_POINTS = {
    "m3-k3-base2": (3, 3, 2),
    "m2-k4-base2": (2, 4, 2),
    "m2-k2-base6": (2, 2, 6),
    "m2-k2-base8": (2, 2, 8),
}
WORKLOADS = {
    "catalog": None,
    "stress-group": ("m3-k3-base2", "m2-k4-base2"),
    "stress-rank": ("m2-k2-base6", "m2-k2-base8"),
}
GOLDEN_SEED = 0
SETUP_REPEATS = 9
ALL_CPUS = os.sched_getaffinity(0)


@dataclass(frozen=True)
class Document:
    name: str
    path: Path
    exit_code: int
    closed_form: dict | None
    golden: bool


@dataclass
class Result:
    seconds: float
    code: object  # the CLI's exit code, or a traceback string on a crash
    stdout: bytes
    trace: tuple | None
    rss_mb: float


# ---------------------------------------------------------------------------
# inputs

def build_documents(package, workload: str, seed: int) -> list[Document]:
    """Write the workload's documents under out/ and describe what each must give."""
    folder = OUT / "docs" / f"{workload}-seed{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    items = []
    if WORKLOADS[workload] is None:
        catalog = package.catalog
        for name in catalog.list_entries():
            entry = catalog.get_entry(name)
            items.append((f"catalog/{name}", entry.document, 2 if entry.expect_invalid else 0,
                          None, True))
    else:
        for point in WORKLOADS[workload]:
            m, k, base = STRESS_POINTS[point]
            items.append((f"stress/{point}", stress.stress_document(m, k, base, seed), 0,
                          stress.expected(m, k, base), seed == GOLDEN_SEED))
    documents = []
    for name, doc, code, closed_form, golden in items:
        path = folder / (name.split("/")[1] + ".json")
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        documents.append(Document(name, path, code, closed_form, golden))
    return documents


# ---------------------------------------------------------------------------
# one operation in a forked child

def _child(package, argv, traced: bool, write_fd: int) -> None:
    tracer = tracing.install(package) if traced else None
    out = io.StringIO()
    sys.stdout, sys.stderr = out, io.StringIO()
    try:
        code = package.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = traceback.format_exc()
    payload = (code, out.getvalue().encode("utf-8"), tracer.export() if tracer else None)
    with os.fdopen(write_fd, "wb") as fh:
        pickle.dump(payload, fh)


def _spin_seconds() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(15_000):
        x += i * i % 7
    return time.perf_counter() - start


def pin_to_fastest_cpu() -> None:
    """Pin this process, and so the next child, to the CPU that runs a short loop fastest.

    On a shared VM a neighbour can slow one vCPU for seconds at a time while
    the other runs at full speed; steal time does not show it.  Choosing the
    faster vCPU just before each operation takes this contention out of the
    measurement instead of averaging it in.
    """
    speeds = []
    for cpu in sorted(ALL_CPUS):
        os.sched_setaffinity(0, {cpu})
        speeds.append((min(_spin_seconds() for _ in range(3)), cpu))
    os.sched_setaffinity(0, {min(speeds)[1]})


def run_operation(package, argv, traced: bool) -> Result:
    pin_to_fastest_cpu()
    read_fd, write_fd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            _child(package, argv, traced, write_fd)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        payload = fh.read()
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    rss_mb = usage.ru_maxrss / 1024
    if not payload:
        return Result(seconds, f"child ended without a result (status {status})", b"", None, rss_mb)
    code, stdout, trace = pickle.loads(payload)
    return Result(seconds, code, stdout, trace, rss_mb)


# ---------------------------------------------------------------------------
# correctness

def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def closed_form_problems(command: str, report: dict, want: dict) -> list[str]:
    if command == "check":
        pairs = [("passed", report["passed"], True),
                 ("group_order", report["group_order"], want["group_order"])]
    elif command == "albanese":
        pairs = [("q", report["q"], want["q"]),
                 ("group_order", report["group_order"], want["group_order"]),
                 ("h.order", report["h"]["order"], want["h_order"]),
                 ("fiber.kind", report["fiber"]["kind"], want["fiber_kind"]),
                 ("fiber.dim", report["fiber"]["dim"], want["fiber_dim"]),
                 ("canonical.x_order", report["canonical"]["x_order"], want["canonical_order"])]
    elif command == "invariants":
        pairs = [("q", report["q"], want["q"]),
                 ("group_order", report["group_order"], want["group_order"]),
                 ("canonical_order", report["canonical_order"], want["canonical_order"]),
                 ("euler_char_structure_sheaf", report["euler_char_structure_sheaf"],
                  want["euler_char_structure_sheaf"])]
    else:
        pairs = [("fixed_points.passed", report["fixed_points"]["passed"], True),
                 ("fiber_count.passed", report["fiber_count"]["passed"], True)]
    return [f"{key} = {got!r}, expected {expected!r}" for key, got, expected in pairs
            if got != expected]


def problems(document: Document, command: str, result: Result, golden: dict) -> list[str]:
    """Why an operation's output is wrong; empty when it is right."""
    if not isinstance(result.code, int):
        return [f"crash: {result.code}"]
    found = []
    if result.code != document.exit_code:
        found.append(f"exit code {result.code}, expected {document.exit_code}")
    if document.golden:
        want = golden.get(f"{document.name}/{command}")
        got = {"code": result.code, "sha256": digest(result.stdout)}
        if want != got:
            found.append(f"output {got} differs from golden {want}")
    if document.closed_form is not None:
        try:
            report = json.loads(result.stdout)
            found.extend(closed_form_problems(command, report, document.closed_form))
        except (ValueError, KeyError, TypeError) as exc:
            found.append(f"report does not have the expected shape: {exc!r}")
    return found


def self_test(document: Document, command: str, result: Result, golden: dict) -> bool:
    """A one-byte change to a correct, golden-checked output must be caught."""
    changed = bytearray(result.stdout or b"\n")
    changed[len(changed) // 2] ^= 1
    altered = Result(result.seconds, result.code, bytes(changed), None, result.rss_mb)
    return not problems(document, command, result, golden) and bool(
        problems(document, command, altered, golden))


# ---------------------------------------------------------------------------
# measurement

def measure_setup() -> list[float]:
    """Seconds for a fresh interpreter to import hyperelliptic.cli, once per repeat."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", "import hyperelliptic.cli"]
    subprocess.run(argv, env=env, cwd=ROOT, check=True)  # writes the bytecode cache
    samples = []
    for _ in range(SETUP_REPEATS):
        pin_to_fastest_cpu()
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        samples.append(time.perf_counter() - start)
    return samples


class Run:
    """All operations of one benchmark run, with their checks."""

    def __init__(self, package, documents, golden, seed):
        self.package = package
        self.documents = documents
        self.golden = golden
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failures: list[str] = []
        self.untraced_digests: dict[str, str] = {}
        self.self_test: bool | None = None
        self.operations: list[dict] = []  # traced operations, for the span file
        self.pass_seconds = {False: [], True: []}  # per pass: command -> seconds
        self.pass_layers: list[dict] = []
        self.peak_rss_mb = 0.0
        self.succeeded_untraced = 0
        self.untraced_seconds = 0.0

    def operation(self, document: Document, command: str, traced: bool) -> Result:
        """Run one operation and record whether its output is right."""
        argv = COMMANDS[command] + [str(document.path), "--format", "json"]
        result = run_operation(self.package, argv, traced)
        self.attempted += 1
        key = f"{document.name}/{command}"
        found = problems(document, command, result, self.golden)
        if traced:
            if digest(result.stdout) != self.untraced_digests[key]:
                found.append("traced output differs from the untraced output")
        else:
            self.untraced_digests[key] = digest(result.stdout)
            self.untraced_seconds += result.seconds
            self.peak_rss_mb = max(self.peak_rss_mb, result.rss_mb)
            self.succeeded_untraced += not found
        if found:
            self.failures.append(f"{key}: " + "; ".join(found))
        elif self.self_test is None and document.golden:
            self.self_test = self_test(document, command, result, self.golden)
        return result

    def run_pass(self, trace: bool) -> None:
        """Every document through every command, in the seed's order.

        With trace, each operation runs untraced and then traced, back to
        back, so the overhead compares runs made under the same machine load.
        """
        order = [(d, c) for d in self.documents for c in COMMANDS]
        self.rng.shuffle(order)
        seconds = {False: dict.fromkeys(COMMANDS, 0.0), True: dict.fromkeys(COMMANDS, 0.0)}
        layers = []
        for document, command in order:
            for traced in (False, True) if trace else (False,):
                result = self.operation(document, command, traced)
                seconds[traced][command] += result.seconds
                if traced and result.trace is not None:
                    layers.append(tracing.operation_totals(*result.trace))
                    self.operations.append({"document": document.name, "command": command,
                                            "pass": len(self.pass_layers),
                                            "trace": result.trace})
        self.pass_seconds[False].append(seconds[False])
        if trace:
            self.pass_seconds[True].append(seconds[True])
            self.pass_layers.append(tracing.merge_totals(layers))

    def reports_per_s(self) -> float:
        return self.succeeded_untraced / self.untraced_seconds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def command_medians(passes: list[dict]) -> dict[str, tuple[float, float, float]]:
    return {c: quartiles([p[c] for p in passes]) for c in COMMANDS}


def end_to_end_metrics(run: Run, setup: list[float], lines: list[str]) -> dict:
    metrics = {"setup_s": (statistics.median(setup), "s")}
    lines.append(f"setup_s            {metrics['setup_s'][0]:.4f} s  "
                 f"(median of {len(setup)} fresh imports)")
    passes = run.pass_seconds[False]
    for command, (q1, median, q3) in command_medians(passes).items():
        metrics[f"{command}_s"] = (median, "s")
        lines.append(f"{command + '_s':<18} {median:.4f} s  "
                     f"(quartiles {q1:.4f} .. {q3:.4f}, {len(passes)} passes)")
    metrics["reports_per_s"] = (run.reports_per_s(), "1/s")
    metrics["peak_rss_mb"] = (run.peak_rss_mb, "MB")
    lines.append(f"reports_per_s      {metrics['reports_per_s'][0]:.4f} 1/s  "
                 f"({run.succeeded_untraced} good operations in {run.untraced_seconds:.2f} s)")
    lines.append(f"error_rate         {len(run.failures) / run.attempted:.4f} ratio  "
                 f"({len(run.failures)} of {run.attempted} operations failed)")
    lines.append(f"peak_rss_mb        {run.peak_rss_mb:.1f} MB")
    return metrics


def per_layer_metrics(run: Run, lines: list[str]) -> dict:
    names = sorted({k for p in run.pass_layers for k in p})
    metrics = {}
    for name in names:
        value = statistics.median([p.get(name, 0) for p in run.pass_layers])
        metrics[name] = (value, _layer_unit(name))
    untraced = command_medians(run.pass_seconds[False])
    traced = command_medians(run.pass_seconds[True])
    for command in COMMANDS:
        metrics[f"{command}_s"] = (untraced[command][1], "s")
        metrics[f"overhead.{command}_s"] = (traced[command][1] / untraced[command][1], "ratio")
    metrics["reports_per_s"] = (run.reports_per_s(), "1/s")
    lines.append(f"{'per-layer metric':<52} {'value':>14}  unit "
                 f"(median of {len(run.pass_layers)} traced passes)")
    lines.extend(f"{name:<52} {value:>14.6g}  {unit}" for name, (value, unit) in metrics.items())
    return metrics


def _layer_unit(name: str) -> str:
    quantity = name.rsplit(".", 1)[1]
    if quantity in ("s", "self_s"):
        return "s"
    if quantity == "cap_share":
        return "ratio"
    if quantity == "max_bits":
        return "bits"
    return "count"


def write_trace(run: Run, workload: str, seed: int, lines: list[str]) -> None:
    """The span file and the per-layer table of a traced run."""
    operations, spans = [], []
    for op_id, op in enumerate(run.operations):
        op_spans, _, _ = op.pop("trace")
        operations.append(dict(op, id=op_id))
        offset = len(spans)
        for name, start, end, parent in op_spans:
            spans.append({"id": len(spans), "op": op_id, "name": name, "start": start,
                          "end": end, "parent": parent + offset if parent >= 0 else None})
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"spans-{workload}-seed{seed}.json").write_text(
        json.dumps({"operations": operations, "spans": spans}) + "\n", encoding="utf-8")
    (OUT / f"layers-{workload}-seed{seed}.txt").write_text("\n".join(lines) + "\n",
                                                            encoding="utf-8")


# ---------------------------------------------------------------------------
# entry points

def import_program():
    if not (SRC / "hyperelliptic" / "cli.py").is_file():
        sys.exit(f"perfbench: no program at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import hyperelliptic.cli  # noqa: F401  (imports every module of the package)

    package = sys.modules["hyperelliptic"]
    if Path(package.__file__).resolve().parent != SRC / "hyperelliptic":
        sys.exit(f"perfbench: imported hyperelliptic from {package.__file__}, not {SRC}")
    return package


def record_golden(package) -> int:
    golden = {}
    for workload in WORKLOADS:
        for document in build_documents(package, workload, GOLDEN_SEED):
            for command, args in COMMANDS.items():
                argv = args + [str(document.path), "--format", "json"]
                result = run_operation(package, argv, traced=False)
                found = problems(replace(document, golden=False), command, result, {})
                if found:
                    print(f"{document.name}/{command}: {found}", file=sys.stderr)
                    return 1
                golden[f"{document.name}/{command}"] = {
                    "code": result.code, "sha256": digest(result.stdout)}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(golden)} golden outputs in {GOLDEN}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS), default="catalog")
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json from the program as it stands")
    args = parser.parse_args(argv)

    package = import_program()
    if args.record_golden:
        return record_golden(package)
    setup = None if args.trace else measure_setup()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    documents = build_documents(package, args.workload, args.seed)
    run = Run(package, documents, golden, args.seed)
    start = time.perf_counter()
    while True:
        run.run_pass(trace=bool(args.trace))
        if time.perf_counter() - start >= args.seconds:
            break

    lines = [f"workload {args.workload}, seed {args.seed}, "
             f"{len(documents)} documents x {len(COMMANDS)} commands, trace {args.trace}"]
    if args.trace:
        metrics = per_layer_metrics(run, lines)
    else:
        metrics = end_to_end_metrics(run, setup, lines)
    lines.append("self-test (one-byte change caught): " + {
        True: "pass", False: "FAIL", None: "not applicable, no golden at this seed"}[run.self_test])
    lines.extend(f"FAILED {failure}" for failure in run.failures)
    if args.trace:
        write_trace(run, args.workload, args.seed, lines)
    print("\n".join(lines))
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    print(json.dumps({
        "correct": not run.failures and run.self_test is not False,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in spec["per_layer" if args.trace else "end_to_end"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
