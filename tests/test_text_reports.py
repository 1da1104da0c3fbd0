"""Each text report is its JSON payload, rendered, and the help text is pinned.

`cli` builds one payload per command and writes it either as json or through
a text renderer that reads the payload alone.  So rendering the parsed json
report must give the text report byte for byte, on every catalog entry (the
two invalid ones give `check`'s failure lines) and on the seed-0 stress
documents of `output_digest.py`.
"""

import json

import pytest

from conftest import load_perfbench
from output_digest import STRESS_POINTS

from hyperelliptic import cli
from hyperelliptic.catalog import get_entry, list_entries
from test_cli import run_cli

COMMANDS = (["check"], ["albanese"], ["albanese", "--recurse"], ["invariants"], ["oracle"])
RENDERERS = {
    "check": cli.check_text,
    "albanese": cli.albanese_text,
    "invariants": cli.invariants_text,
    "oracle": cli.oracle_text,
}


def rendered(payload_json: str, command: str) -> str:
    return "".join(f"{line}\n" for line in RENDERERS[command](json.loads(payload_json)))


def documents():
    for name in list_entries():
        yield pytest.param(get_entry(name).document, id=name)
    stress = load_perfbench("stress")
    for m, k, base in STRESS_POINTS:
        doc = stress.stress_document(m, k, base, 0)
        yield pytest.param(doc, id=f"stress-m{m}-k{k}-base{base}-seed0")


@pytest.mark.parametrize("doc", documents())
def test_text_report_is_the_json_payload_rendered(doc, tmp_path, capsys):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(doc))
    for command in COMMANDS:
        argv = [command[0], str(path), *command[1:], "--format"]
        code, out, err = run_cli([*argv, "json"], capsys)
        text = rendered(out, command[0]) if out else ""
        assert run_cli([*argv, "text"], capsys) == (code, text, err)
        # a datum that fails validation gets check's report and no other
        assert bool(out) == (code == 0 or command == ["check"]), command


def test_a_failed_fiber_count_is_rendered_from_its_witness(tmp_path, capsys, monkeypatch):
    path = tmp_path / "z4.json"
    path.write_text(json.dumps(get_entry("z4-threefold").document))
    pipeline = cli.run_pipeline

    def without_g_squared(datum, **kw):
        report = pipeline(datum, **kw)
        return report._replace(subgroup_h=report.subgroup_h[:1])

    monkeypatch.setattr(cli, "run_pipeline", without_g_squared)
    code, out, _ = run_cli(["oracle", str(path), "--format", "json"], capsys)
    assert code == 2
    text = run_cli(["oracle", str(path), "--format", "text"], capsys)[1]
    assert text == rendered(out, "oracle")
    assert text.endswith("fiber count: fail at level 4: fiber (0, 0) has 512 points\n")


HELP = {
    (): """\
usage: hyperelliptic [-h] {check,albanese,invariants,oracle,catalog} ...

Exact Albanese data of hyperelliptic varieties from rational lattice
presentations.

positional arguments:
  {check,albanese,invariants,oracle,catalog}
    check               validate a datum file
    albanese            compute the Albanese report
    invariants          irregularity, Hodge diamond, canonical order
    oracle              brute-force torsion-level verification
    catalog             built-in constructions

options:
  -h, --help            show this help message and exit
""",
    ("check",): """\
usage: hyperelliptic check [-h] [--format {json,text}] path

positional arguments:
  path

options:
  -h, --help            show this help message and exit
  --format {json,text}
""",
    ("albanese",): """\
usage: hyperelliptic albanese [-h] [--recurse] [--format {json,text}] path

positional arguments:
  path

options:
  -h, --help            show this help message and exit
  --recurse             recurse into hyperelliptic fibers
  --format {json,text}
""",
    ("invariants",): """\
usage: hyperelliptic invariants [-h] [--format {json,text}] path

positional arguments:
  path

options:
  -h, --help            show this help message and exit
  --format {json,text}
""",
    ("oracle",): """\
usage: hyperelliptic oracle [-h] [--level LEVEL] [--format {json,text}] path

positional arguments:
  path

options:
  -h, --help            show this help message and exit
  --level LEVEL
  --format {json,text}
""",
    ("catalog",): """\
usage: hyperelliptic catalog [-h] {list,run,export} [name]

positional arguments:
  {list,run,export}
  name

options:
  -h, --help         show this help message and exit
""",
}


@pytest.mark.parametrize("command", list(HELP), ids=lambda c: " ".join(c) or "hyperelliptic")
def test_help_text_at_80_columns(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli([*command, "--help"], capsys) == (0, HELP[command], "")
