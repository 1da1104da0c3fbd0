import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import hyperelliptic
from hyperelliptic.action import MAX_CLOSURE_CAP, MAX_RANK
from hyperelliptic.catalog import get_entry
from hyperelliptic.cli import main
from hyperelliptic.documents import (
    InputError,
    build_datum,
    dumps_canonical,
    parse_rational,
    parse_root_label,
)
from hyperelliptic.cyclotomic import RootOfUnity


def format_root(z: RootOfUnity) -> str:
    """The label `parse_root_label` reads back as z: 1, -1, i, -i, zetaN or zetaN^k."""
    if z.order == 1:
        return "1"
    if z.order == 2:
        return "-1"
    if z.order == 4:
        return "i" if z.k == 1 else "-i"
    return f"zeta{z.order}" if z.k == 1 else f"zeta{z.order}^{z.k}"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def z4_file(tmp_path, capsys):
    code, out, _ = run_cli(["catalog", "export", "z4-threefold"], capsys)
    assert code == 0
    path = tmp_path / "z4.json"
    path.write_text(out)
    return str(path)


class TestParsing:
    def test_rationals(self):
        assert parse_rational("3/4") == parse_rational("6/8")
        assert parse_rational("2") == 2
        with pytest.raises(InputError):
            parse_rational("3.5x")
        with pytest.raises(InputError):
            parse_rational("1/0")

    def test_root_labels_round_trip(self):
        for label in ("1", "-1", "i", "-i", "zeta3", "zeta3^2", "zeta6", "zeta6^5"):
            assert format_root(parse_root_label(label)) == label
        assert parse_root_label("zeta6^2") == RootOfUnity.of(1, 3)
        with pytest.raises(InputError):
            parse_root_label("omega")

    def test_bad_documents(self):
        with pytest.raises(InputError):
            build_datum({"mode": "nope"})
        with pytest.raises(InputError):
            build_datum({"mode": "builder", "factors": []})
        with pytest.raises(InputError):
            build_datum({"mode": "raw", "rank": 3})
        # well-formed but mathematically invalid: a math error, not a parse error
        from hyperelliptic.torus import InvalidAutomorphism

        with pytest.raises(InvalidAutomorphism):
            build_datum(
                {
                    "mode": "builder",
                    "factors": [{"kind": "generic"}],
                    "generators": [{"zetas": ["i"], "translation": ["0", "0"]}],
                }
            )

    def test_raw_document_round_trips_through_pipeline(self):
        doc = {
            "mode": "raw",
            "rank": 2,
            "form": [["0", "1"], ["-1", "0"]],
            "generators": [
                {
                    "matrix": [[-1, 0], [0, -1]],
                    "translation": ["0", "1/2"],
                    "eigenvalues": ["-1"],
                }
            ],
        }
        datum = build_datum(doc)
        assert datum.group.order == 2
        assert datum.j_stability_assumed


class TestExitCodes:
    def test_check_valid(self, z4_file, capsys):
        code, out, _ = run_cli(["check", z4_file], capsys)
        assert code == 0
        assert "passed: True" in out

    def test_check_invalid_datum(self, tmp_path, capsys):
        code, out, _ = run_cli(["catalog", "export", "z4-threefold-corrupted"], capsys)
        path = tmp_path / "bad.json"
        path.write_text(out)
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert code == 2

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all")
        code, _, err = run_cli(["check", str(path)], capsys)
        assert code == 1
        assert "input error" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["check", "/nonexistent/file.json"], capsys)
        assert code == 1

    def test_unknown_catalog_entry(self, capsys):
        code, _, err = run_cli(["catalog", "run", "nope"], capsys)
        assert code == 1

    def test_non_unimodular_matrix_exit_2(self, tmp_path, capsys):
        doc = {
            "mode": "raw",
            "rank": 2,
            "form": [["0", "1"], ["-1", "0"]],
            "generators": [
                {"matrix": [[2, 0], [0, 1]], "translation": ["0", "0"],
                 "eigenvalues": ["1"]}
            ],
        }
        path = tmp_path / "nonuni.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(["check", str(path)], capsys)
        assert code == 2
        assert "unimodular" in err or "invalid datum" in err


RAW_INVOLUTION = {
    "mode": "raw",
    "rank": 2,
    "form": [["0", "1"], ["-1", "0"]],
    "generators": [
        {"matrix": [[-1, 0], [0, -1]], "translation": ["0", "1/2"], "eigenvalues": ["-1"]}
    ],
}

# free, faithful and with consistent eigenvalues, but diag(1, 1, -1, -1)
# flips E(e0, e2), so the form is not invariant
RAW_FORM_FLIP = {
    "mode": "raw",
    "rank": 4,
    "form": [["0", "1", "1", "0"], ["-1", "0", "0", "0"],
             ["-1", "0", "0", "1"], ["0", "0", "-1", "0"]],
    "generators": [
        {"matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
         "translation": ["1/2", "0", "0", "0"],
         "eigenvalues": ["1", "-1"]}
    ],
}


class TestStrictInput:
    def check_exit(self, doc, tmp_path, capsys) -> tuple[int, str]:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(["check", str(path)], capsys)
        return code, err

    @pytest.mark.parametrize("cap", ["abc", "1024", 2.5, True, 0, -3, None])
    def test_bad_closure_cap_builder_exit_1(self, cap, tmp_path, capsys):
        doc = dict(get_entry("z4-threefold").document, closure_cap=cap)
        code, err = self.check_exit(doc, tmp_path, capsys)
        assert code == 1
        assert "closure_cap" in err

    @pytest.mark.parametrize("cap", ["abc", False, 0])
    def test_bad_closure_cap_raw_exit_1(self, cap, tmp_path, capsys):
        code, err = self.check_exit(dict(RAW_INVOLUTION, closure_cap=cap), tmp_path, capsys)
        assert code == 1
        assert "closure_cap" in err

    def test_good_closure_cap(self, tmp_path, capsys):
        doc = dict(get_entry("z4-threefold").document, closure_cap=4)
        code, _ = self.check_exit(doc, tmp_path, capsys)
        assert code == 0
        assert build_datum(dict(RAW_INVOLUTION, closure_cap=2)).group.order == 2

    @pytest.mark.parametrize("cap", [MAX_CLOSURE_CAP + 1, 10**9])
    @pytest.mark.parametrize("mode", ["builder", "raw"])
    def test_closure_cap_over_maximum_exit_1(self, mode, cap, tmp_path, capsys):
        base = get_entry("z4-threefold").document if mode == "builder" else RAW_INVOLUTION
        code, err = self.check_exit(dict(base, closure_cap=cap), tmp_path, capsys)
        assert code == 1
        assert "closure_cap" in err and str(MAX_CLOSURE_CAP) in err

    def test_closure_cap_at_maximum(self):
        doc = dict(get_entry("z4-threefold").document, closure_cap=MAX_CLOSURE_CAP)
        assert build_datum(doc).group.order == 4
        assert build_datum(dict(RAW_INVOLUTION, closure_cap=MAX_CLOSURE_CAP)).group.order == 2

    def test_builder_rank_over_maximum_exit_1(self, tmp_path, capsys):
        factors = [{"kind": "generic"}] * (MAX_RANK // 2 + 1)
        doc = {"mode": "builder", "factors": factors, "generators": []}
        code, err = self.check_exit(doc, tmp_path, capsys)
        assert code == 1
        assert "factors" in err and str(MAX_RANK) in err

    def test_builder_rank_at_maximum(self):
        factors = [{"kind": "generic"}] * (MAX_RANK // 2)
        doc = {"mode": "builder", "factors": factors, "generators": []}
        assert build_datum(doc).rank == MAX_RANK

    @pytest.mark.parametrize("rank", [MAX_RANK + 2, 10**6])
    def test_raw_rank_over_maximum_exit_1(self, rank, tmp_path, capsys):
        code, err = self.check_exit(dict(RAW_INVOLUTION, rank=rank), tmp_path, capsys)
        assert code == 1
        assert "rank" in err and str(MAX_RANK) in err

    @pytest.mark.parametrize("entry", [-1.0, -1.9, True])
    def test_non_integer_raw_matrix_entry_exit_1(self, entry, tmp_path, capsys):
        generator = dict(RAW_INVOLUTION["generators"][0], matrix=[[entry, 0], [0, -1]])
        doc = dict(RAW_INVOLUTION, generators=[generator])
        code, err = self.check_exit(doc, tmp_path, capsys)
        assert code == 1
        assert "integers" in err

    @pytest.mark.parametrize(
        "doc,rank", [(RAW_INVOLUTION, 2.9), (RAW_INVOLUTION, True), (RAW_FORM_FLIP, "4")]
    )
    def test_non_integer_raw_rank_exit_1(self, doc, rank, tmp_path, capsys):
        code, err = self.check_exit(dict(doc, rank=rank), tmp_path, capsys)
        assert code == 1
        assert "rank" in err

    def test_unknown_key_exit_1(self, tmp_path, capsys):
        for doc in (get_entry("z4-threefold").document, RAW_INVOLUTION):
            code, err = self.check_exit(dict(doc, bogus=1), tmp_path, capsys)
            assert code == 1
            assert "bogus" in err

    def test_non_integer_block_entry_exit_1(self, tmp_path, capsys):
        doc = {
            "mode": "builder",
            "factors": [{"kind": "generic"}],
            "generators": [{"blocks": [[[-1.9, 0], [0, -1]]], "translation": ["1/2", "0"]}],
        }
        code, err = self.check_exit(doc, tmp_path, capsys)
        assert code == 1
        assert "integers" in err


class TestMalformedFiles:
    """A file that json cannot read as one document is an input error (exit 1)."""

    @pytest.mark.parametrize(
        "content,fragment",
        [
            (b'{"mode": "\xff"}', "utf-8"),
            (b"[" * 100_000 + b"]" * 100_000, "recursion"),
            (b'{"mode": "raw", "rank": ' + b"1" * 5000 + b"}", "digits"),
            (json.dumps(RAW_INVOLUTION)[:-1].encode() + b', "rank": 2}', "duplicate key 'rank'"),
        ],
        ids=["non-utf8", "deep-nesting", "long-integer", "duplicate-key"],
    )
    def test_malformed_file_exit_1(self, content, fragment, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        code, _, err = run_cli(["check", str(path)], capsys)
        assert code == 1
        assert err.startswith("input error: ") and fragment in err

    def test_duplicate_key_in_a_nested_object_exit_1(self, tmp_path, capsys):
        generator = json.dumps(RAW_INVOLUTION["generators"][0])[:-1] + ', "eigenvalues": ["-1"]}'
        text = json.dumps(dict(RAW_INVOLUTION, generators=[])).replace("[]", f"[{generator}]")
        path = tmp_path / "doc.json"
        path.write_text(text)
        code, _, err = run_cli(["check", str(path)], capsys)
        assert code == 1
        assert "duplicate key 'eigenvalues'" in err


class TestFormViolation:
    def test_generator_that_moves_the_form_exits_2(self, tmp_path, capsys):
        path = tmp_path / "form.json"
        path.write_text(json.dumps(RAW_FORM_FLIP))
        code, out, _ = run_cli(["check", str(path), "--format", "json"], capsys)
        assert code == 2
        payload = json.loads(out)
        assert payload["form_invariant"] is False
        assert payload["free"] and payload["eigenvalues_consistent"] and payload["faithful"]
        assert payload["failures"] == ["form not invariant at element indices [1]"]


class TestReports:
    def test_albanese_json_structure(self, z4_file, capsys):
        code, out, _ = run_cli(["albanese", z4_file, "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["q"] == 1
        assert payload["h"]["element_indices"] == [0, 2]
        assert payload["fiber"]["kind"] == "hyperelliptic"
        assert payload["fiber"]["cyclic"] is True
        assert payload["fiber"]["holonomy_order"] == 2
        assert payload["canonical"] == {
            "fiber_order": 2,
            "pulled_back_from_albanese": False,
            "x_order": 4,
        }

    def test_albanese_recurse(self, z4_file, capsys):
        code, out, _ = run_cli(
            ["albanese", z4_file, "--recurse", "--format", "json"], capsys
        )
        payload = json.loads(out)
        nested = payload["fiber_report"]
        assert nested is not None
        assert nested["q"] == 1
        assert nested["fiber"]["kind"] == "abelian"

    def test_bielliptic_2_isogeny_factors(self, tmp_path, capsys):
        code, out, _ = run_cli(["catalog", "export", "bielliptic-2"], capsys)
        path = tmp_path / "b2.json"
        path.write_text(out)
        code, out, _ = run_cli(["albanese", str(path), "--format", "json"], capsys)
        payload = json.loads(out)
        assert sorted(payload["albanese"]["isogeny_factors"]) == [2, 2]

    def test_invariants_text_shows_diamond(self, tmp_path, capsys):
        code, out, _ = run_cli(["catalog", "export", "z2z2-threefold"], capsys)
        path = tmp_path / "z2z2.json"
        path.write_text(out)
        code, out, _ = run_cli(["invariants", str(path)], capsys)
        assert code == 0
        lines = [line.strip() for line in out.splitlines()]
        assert "1  3  3  1" in lines
        assert "0  3  0" in lines

    def test_oracle_passes(self, z4_file, capsys):
        code, out, _ = run_cli(["oracle", z4_file, "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["fixed_points"]["passed"] is True
        assert payload["fiber_count"]["passed"] is True

    def test_oracle_level_flag(self, z4_file, capsys):
        code, out, _ = run_cli(
            ["oracle", z4_file, "--level", "4", "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["fiber_count"]["level"] == 4

    def test_catalog_run_all_from_cli(self, capsys):
        code, out, _ = run_cli(["catalog", "list"], capsys)
        for name in out.split():
            code, out2, _ = run_cli(["catalog", "run", name], capsys)
            assert code == 0, (name, out2)


class TestNoKCap:
    def test_k_larger_than_the_old_enumeration_cap_exits_0(self, tmp_path, capsys, monkeypatch):
        # nothing enumerates K, so its order is not a limit (|K| = 3 here)
        path = tmp_path / "m3.json"
        path.write_text(json.dumps(get_entry("zmzm-threefold-m3").document))
        argv = ["albanese", str(path), "--format", "json"]
        code, expected, _ = run_cli(argv, capsys)
        assert code == 0
        monkeypatch.setattr("hyperelliptic.albanese.K_ENUMERATION_CAP", 1)
        assert run_cli(argv, capsys) == (0, expected, "")


class TestInternalErrors:
    def test_pipeline_invariant_error_exits_3(self, z4_file, capsys, monkeypatch):
        from hyperelliptic.albanese import PipelineInvariantError

        def boom(*args, **kwargs):
            raise PipelineInvariantError("synthetic failure")

        monkeypatch.setattr("hyperelliptic.cli.run_pipeline", boom)
        code, _, err = run_cli(["albanese", z4_file], capsys)
        assert code == 3
        assert "internal error" in err

    def test_cyclotomic_invariant_error_exits_3(self, z4_file, capsys, monkeypatch):
        # a non-monic Phi_N makes the reduction mod Phi_N raise CyclotomicInvariantError
        monkeypatch.setattr(
            "hyperelliptic.invariants.cyclotomic_polynomial", lambda n: (1, 2)
        )
        code, _, err = run_cli(["invariants", z4_file], capsys)
        assert code == 3
        assert "internal error" in err

    def test_library_has_no_assert_statements(self):
        # python -O strips assert statements, so checks must raise instead
        offenders = []
        for path in sorted(Path(hyperelliptic.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            offenders += [
                f"{path.name}:{node.lineno}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Assert)
            ]
        assert offenders == []


class TestDeterminism:
    def test_byte_identical_reports(self, z4_file):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "hyperelliptic.cli", "albanese", z4_file,
                 "--recurse", "--format", "json"],
                capture_output=True,
                check=True,
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_json_round_trip(self, z4_file, capsys):
        code, out, _ = run_cli(["albanese", z4_file, "--format", "json"], capsys)
        payload = json.loads(out)
        assert dumps_canonical(payload) == out
