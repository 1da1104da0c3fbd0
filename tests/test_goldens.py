"""The benchmark's goldens hold for the program as it stands.

perfbench/golden.json pins the exit code and the sha256 of stdout of the
benchmark's four commands, with `--format json`, on the 16 catalog entries
and on the four stress points at the golden seed.  The benchmark rejects a
change whose output drifts from them; this test catches the drift here, in
process, reading the commands, the stress points and the seed from
perfbench/run.py.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json

import pytest

from conftest import PERFBENCH
from hyperelliptic.catalog import get_entry, list_entries
from hyperelliptic.cli import main


@pytest.fixture(scope="module")
def run():
    if not (PERFBENCH / "run.py").exists():
        pytest.skip("perfbench/ is absent")
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))  # run.py imports stress and tracing by name
        yield importlib.import_module("run")


def documents(run):
    for name in list_entries():
        yield f"catalog/{name}", get_entry(name).document
    for point, (m, k, base) in run.STRESS_POINTS.items():
        yield f"stress/{point}", run.stress.stress_document(m, k, base, run.GOLDEN_SEED)


def test_outputs_match_goldens(run, tmp_path):
    golden = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))
    got = {}
    for name, doc in documents(run):
        path = tmp_path / (name.split("/")[1] + ".json")
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        for command, args in run.COMMANDS.items():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = main(args + [str(path), "--format", "json"])
            digest = hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()
            got[f"{name}/{command}"] = {"code": code, "sha256": digest}
    assert got == golden
