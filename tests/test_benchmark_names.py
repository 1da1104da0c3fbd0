"""The benchmark's tracer finds every function it names.

perfbench/tracing.py rebinds the functions of `hyperelliptic` it spans and
counts by module and attribute path, as strings, in the child process of a
traced run, and its size hooks read some call arguments by name.  A rename in
the library would crash those children; these tests make it fail here
instead.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

from conftest import load_perfbench

TESTS = Path(__file__).resolve().parent

# untraced and then traced, in one process that only this test imports into
TRACED_RUN = """
import contextlib, io, json, sys
sys.path[:0] = sys.argv[1:3]
from conftest import load_perfbench
import hyperelliptic.cli

path = sys.argv[3]
commands = [["check"], ["albanese", "--recurse"], ["invariants"], ["oracle"]]

def run_all():
    out = []
    for command in commands:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = hyperelliptic.cli.main([command[0], path, *command[1:]])
        out.append([code, stdout.getvalue()])
    return out

untraced = run_all()
tracing = load_perfbench("tracing")
hooked = {}
for name, hook in list(tracing.SIZE_HOOKS.items()):
    def recording(package, args, result, name=name, hook=hook):
        sizes = list(hook(package, args, result))
        hooked.setdefault(name, set()).update(metric for metric, _ in sizes)
        return sizes
    tracing.SIZE_HOOKS[name] = recording
tracer = tracing.install(sys.modules["hyperelliptic"])
traced = run_all()
totals = tracing.operation_totals(*tracer.export())
print(json.dumps({
    "untraced": untraced,
    "traced": traced,
    "hooks": sorted(tracing.SIZE_HOOKS),
    "hooked": {name: sorted(metrics) for name, metrics in hooked.items()},
    "totals": sorted(totals),
}))
"""


def resolve(module_name: str, path: str):
    owner = importlib.import_module(f"hyperelliptic.{module_name}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    return owner


def test_tracer_names_resolve():
    tracing = load_perfbench("tracing")
    for name, (module_name, path) in {**tracing.TRACED, **tracing.COUNTED}.items():
        assert callable(resolve(module_name, path)), name
    # the compute_K size hook divides |K| by this constant
    assert resolve("albanese", "K_ENUMERATION_CAP") > 0


def test_traced_cli_matches_untraced(tmp_path):
    load_perfbench("tracing")  # skips when perfbench/ is absent
    src = str(TESTS.parent / "src")
    path = tmp_path / "z4-threefold.json"
    path.write_text(json.dumps(resolve("catalog", "get_entry")("z4-threefold").document))
    run = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(TESTS), src, str(path)],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert [code for code, _ in result["untraced"]] == [0, 0, 0, 0]
    assert result["traced"] == result["untraced"]
    # every size hook ran and its metrics reached the operation totals
    assert len(result["hooks"]) == 5
    assert sorted(result["hooked"]) == result["hooks"]
    for metrics in result["hooked"].values():
        assert metrics and set(metrics) <= set(result["totals"])
