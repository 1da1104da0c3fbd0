import ast
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hyperelliptic
from hyperelliptic.action import (
    MAX_CLOSURE_CAP,
    MAX_RANK,
    AffineAut,
    InconsistentEigenvalues,
    close_group,
)
from hyperelliptic.catalog import get_entry
from hyperelliptic.cli import main
from hyperelliptic.documents import (
    InputError,
    build_datum,
    dumps_canonical,
    parse_rational,
    parse_root_label,
)
from hyperelliptic.albanese import PipelineInvariantError, run_pipeline
from hyperelliptic.cyclotomic import RootOfUnity
from hyperelliptic.exactlin import identity, transpose
from helpers import contains, element_keys, fixed_projector, from_rat_columns, translation
from test_nonabelian import D4_THREEFOLD


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


def run_fresh_cli(args, **env) -> subprocess.CompletedProcess:
    """``python -m hyperelliptic.cli`` in a new interpreter importing this checkout's package."""
    src = str(Path(hyperelliptic.__file__).parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "hyperelliptic.cli", *args],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path, **env),
    )


@pytest.fixture()
def z4_file(tmp_path, capsys):
    code, out, _ = run_cli(["catalog", "export", "z4-threefold"], capsys)
    assert code == 0
    path = tmp_path / "z4.json"
    path.write_text(out)
    return str(path)


def reference_rational(text: str) -> Fraction | None:
    """The reference for `parse_rational`: what `Fraction` reads off the stripped text, or None.

    Non-ASCII text, '_' and exponents, which `Fraction` would read, are refused first.
    """
    if not text.isascii() or "_" in text or "e" in text.lower():
        return None
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        return None


# the pieces a rational is spelled from, and the ones the format refuses
RATIONAL_PIECES = st.one_of(
    st.sampled_from(["-", "+", "/", ".", " ", "\t", "\n", "\x1c", "\x1d", "\x1e", "\x1f",
                     "\xa0", "_", "\uff11", "e", "E", "d"]),
    st.from_regex("[0-9]{1,4}", fullmatch=True),
)


class TestParsing:
    def test_rationals(self):
        assert parse_rational("3/4") == parse_rational("6/8") == (4, 3)
        assert parse_rational("2") == (1, 2)
        assert parse_rational("-0.25") == (4, -1)
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

    @pytest.mark.parametrize("text", ["1_0/3", "１/２", "1/２", "\u00a01/2"])
    def test_rationals_are_ascii_without_underscores(self, text):
        # Fraction alone reads "1_0/3" as 10/3 and fullwidth digits as ASCII ones
        with pytest.raises(InputError):
            parse_rational(text)

    @pytest.mark.parametrize("label", ["\xa0i", "\u3000zeta4", "zeta4\xa0", "-1\u2003", "\x85-1"])
    def test_root_labels_take_the_rationals_whitespace(self, label, tmp_path, capsys):
        # str.strip() alone reads these as i, zeta4, zeta4, -1 and -1: only the
        # ASCII whitespace that may surround a rational may surround a label
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(with_generator(RAW_INVOLUTION, eigenvalues=[label])))
        code, _, err = run_cli(["check", str(path)], capsys)
        assert code == 1
        assert "bad root-of-unity label" in err
        assert parse_root_label("\t\x1c-1\x1f\n") == parse_root_label("-1")

    @settings(max_examples=2000, deadline=None)
    @given(st.lists(RATIONAL_PIECES, max_size=8).map("".join))
    @example(" -1.\x1f")
    @example("\x1c.5")
    @example("1.d")
    @example("1 / 2")
    @example("\xa01")
    @example("+.0/2")
    def test_rationals_read_what_the_reference_reads(self, text):
        expected = reference_rational(text)
        if expected is None:
            with pytest.raises(InputError, match=f"^bad rational {re.escape(repr(text))}: "):
                parse_rational(text)
        else:
            assert parse_rational(text) == (expected.denominator, expected.numerator)

    def test_decimal_rationals_stay_exact(self):
        assert parse_rational("0.5") == parse_rational("1/2")
        assert parse_rational("-0.25") == parse_rational("-1/4")

    @pytest.mark.parametrize(
        "label",
        ["zeta1_2", "zeta４", "zeta 4", "zeta+4", "zeta", "zeta4^1_0", "zeta4^ 1", "zeta4^+1",
         "zeta4^３", "zeta4^", "zeta4^-"],
    )
    def test_root_label_numbers_are_ascii_digits(self, label):
        # int() alone reads "1_2" as 12, "４" as 4 and " 4" as 4
        with pytest.raises(InputError):
            parse_root_label(label)

    def test_root_label_exponent_may_be_negative(self):
        assert parse_root_label("zeta4^-1") == parse_root_label("-i")
        assert parse_root_label(" zeta6^-2 ") == RootOfUnity.of(2, 3)

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


# (z0 + 1/2, -z1): free and valid, the base of the malformed builder cases
BUILDER_SHIFT = {
    "mode": "builder",
    "factors": [{"kind": "generic"}, {"kind": "generic"}],
    "generators": [{"zetas": ["1", "-1"], "translation": ["1/2", "0", "0", "0"]}],
}


def with_generator(doc, **changes):
    return dict(doc, generators=[dict(doc["generators"][0], **changes)])


class TestUsageErrors:
    """A command line argparse rejects is an input error: exit 1, like a bad file."""

    @pytest.mark.parametrize("args", [
        ["--bogus"],
        ["--format", "xml"],
        ["--level", "abc"],
        ["--level", "0"],
        ["--level", "-4"],
        ["--level", "1_2"],
        ["--level", " 4"],
        ["--level", "+4"],
        ["--level", "\u0664"],
    ], ids=["unknown-option", "format-xml", "level-abc", "level-0", "level-negative",
            "level-underscore", "level-space", "level-plus", "level-arabic-indic"])
    def test_usage_error_exits_1(self, args, z4_file, capsys):
        code, _, err = run_cli(["oracle", z4_file, *args], capsys)
        assert code == 1
        assert "error:" in err

    def test_overlong_level_is_named_by_its_digit_count(self, z4_file, capsys):
        level = "4" * (sys.get_int_max_str_digits() + 1)
        code, _, err = run_cli(["oracle", z4_file, "--level", level], capsys)
        assert code == 1
        assert f"a number of {len(level)} digits" in err
        assert level not in err

    @pytest.mark.parametrize("command", ["check", "albanese", "invariants", "oracle"])
    def test_missing_path_exits_1(self, command, capsys):
        code, _, err = run_cli([command], capsys)
        assert code == 1
        assert "required: path" in err

    def test_help_exits_0(self, capsys):
        code, out, _ = run_cli(["--help"], capsys)
        assert code == 0
        assert "usage:" in out

    def test_level_not_divisible_stays_exit_2(self, z4_file, capsys):
        code, _, err = run_cli(["oracle", z4_file, "--level", "7"], capsys)
        assert code == 2
        assert "level 7 is not divisible" in err


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

    @pytest.mark.parametrize(
        "label", ["zeta" + "9" * 5000, "zeta4^" + "9" * 5000, "zeta4^-" + "9" * 5000],
        ids=["order", "exponent", "negative-exponent"],
    )
    @pytest.mark.parametrize("mode", ["builder", "raw"])
    def test_over_long_root_label_exit_1(self, mode, label, tmp_path, capsys):
        # int() refuses a run of digits past its conversion limit with a bare ValueError
        if mode == "builder":
            doc = with_generator(BUILDER_SHIFT, zetas=[label, "-1"])
        else:
            doc = with_generator(RAW_INVOLUTION, eigenvalues=[label])
        code, err = self.check_exit(doc, tmp_path, capsys)
        assert code == 1
        assert err.startswith("input error: bad root-of-unity label: a number of 5000 digits, ")

    @pytest.mark.parametrize(
        "text",
        [
            json.dumps(with_generator(RAW_INVOLUTION, translation=["1" + "0" * 4999, "1/2"])),
            json.dumps(with_generator(BUILDER_SHIFT, zetas=["zeta" + "9" * 5000, "-1"])),
            json.dumps(RAW_INVOLUTION).replace('"rank": 2', '"rank": ' + "1" * 5000),
        ],
        ids=["rational", "root-label", "json-integer"],
    )
    def test_over_long_number_is_named_not_echoed(self, text, tmp_path, capsys):
        # the message gives the digit count and the limit, not the value and
        # Python's own remedy, which a document cannot apply
        path = tmp_path / "doc.json"
        path.write_text(text)
        code, _, err = run_cli(["check", str(path)], capsys)
        assert code == 1
        assert "5000 digits, over the limit of 4300" in err
        assert len(err.encode()) < 300 and "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("entry", ["1e1000000", "1E2", "-2.5e-1"])
    def test_exponent_notation_exit_1(self, entry, tmp_path, capsys):
        # Fraction reads exponent notation, so nine characters would build a
        # number of a million digits
        doc = with_generator(RAW_INVOLUTION, translation=[entry, "1/2"])
        code, err = self.check_exit(doc, tmp_path, capsys)
        assert code == 1
        assert "exponent notation" in err

    def test_zero_denominator_is_named(self, tmp_path, capsys):
        doc = with_generator(RAW_INVOLUTION, translation=["1/0", "1/2"])
        code, err = self.check_exit(doc, tmp_path, capsys)
        assert code == 1
        assert err == "input error: bad rational '1/0': zero denominator\n"

    def test_unknown_key_exit_1(self, tmp_path, capsys):
        for doc in (get_entry("z4-threefold").document, RAW_INVOLUTION):
            code, err = self.check_exit(dict(doc, bogus=1), tmp_path, capsys)
            assert code == 1
            assert "bogus" in err

    @pytest.mark.parametrize(
        "doc",
        [
            with_generator(BUILDER_SHIFT, translation=[True, "0", "0", "0"]),
            dict(BUILDER_SHIFT, k_gens=[[False, "1/2", "0", "0"]]),
            with_generator(RAW_INVOLUTION, translation=[True, "0"]),
            dict(RAW_INVOLUTION, form=[[False, "1"], ["-1", False]]),
            dict(BUILDER_SHIFT, factors=5),
            dict(BUILDER_SHIFT, factors=None),
            dict(BUILDER_SHIFT, k_gens=5),
            dict(BUILDER_SHIFT, generators=None),
            dict(RAW_INVOLUTION, generators=5),
            dict(RAW_INVOLUTION, elements=None),
            dict(BUILDER_SHIFT, generators=[{"blocks": 5}]),
            dict(BUILDER_SHIFT, factors=[{"kind": "generic", "label": 5}, {"kind": "generic"}]),
            dict(BUILDER_SHIFT, factors=[{"kind": ["generic"]}, {"kind": "generic"}]),
            dict(BUILDER_SHIFT, factors=[{"kind": "hexagonal"}, {"kind": "generic"}]),
        ],
        ids=[
            "bool-translation", "bool-k-gen", "bool-raw-translation", "bool-form",
            "factors-int", "factors-null", "k-gens-int", "generators-null",
            "raw-generators-int", "elements-null", "blocks-int", "label-int",
            "kind-list", "kind-unknown",
        ],
    )
    def test_coerced_or_non_list_input_exit_1(self, doc, tmp_path, capsys):
        code, err = self.check_exit(doc, tmp_path, capsys)
        assert code == 1
        assert err.startswith("input error:")

    @pytest.mark.parametrize("entry", ["-1", " -1", "-1_0"])
    @pytest.mark.parametrize("mode", ["raw", "builder"])
    def test_numeric_string_matrix_entry_exit_1(self, mode, entry, tmp_path, capsys):
        # int() alone reads each of these strings as an integer
        if mode == "raw":
            generator = dict(RAW_INVOLUTION["generators"][0], matrix=[[entry, 0], [0, -1]])
            doc = dict(RAW_INVOLUTION, generators=[generator])
        else:
            block = [[entry, 0], [0, -1]]
            generator = {"blocks": [block], "translation": ["1/2", "0"]}
            doc = {"mode": "builder", "factors": [{"kind": "generic"}], "generators": [generator]}
        code, err = self.check_exit(doc, tmp_path, capsys)
        assert code == 1
        assert "integers" in err

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


class TestTranslationInGroup:
    """A group with a nonidentity translation is not faithful, and every command rejects it.

    (z0 + 1/2, -z1) and the translation z0 + tau/2 generate Z/2 x Z/2 with
    element 2 a translation.  Nothing quotients translations away, so
    ``run_pipeline`` refuses the datum as well.
    """

    DOC = {
        "mode": "builder",
        "factors": [{"kind": "generic"}, {"kind": "generic"}],
        "generators": [
            {"zetas": ["1", "-1"], "translation": ["1/2", "0", "0", "0"]},
            {"zetas": ["1", "1"], "translation": ["0", "1/2", "0", "0"]},
        ],
    }

    @pytest.mark.parametrize("command", ["check", "albanese", "invariants", "oracle"])
    def test_exits_2(self, command, tmp_path, capsys):
        path = tmp_path / "translation.json"
        path.write_text(json.dumps(self.DOC))
        code, out, err = run_cli([command, str(path)], capsys)
        assert code == 2
        assert "nonidentity translations at element indices [2]" in (
            out if command == "check" else err
        )

    def test_run_pipeline_refuses(self):
        with pytest.raises(PipelineInvariantError, match="nonidentity translations"):
            run_pipeline(build_datum(self.DOC))


def d4_with_elements(*elements):
    """The D4 threefold with its r^3 entry and then the given (matrix, eigenvalues) entries."""
    r_cubed = D4_THREEFOLD["elements"][0]
    doc = dict(D4_THREEFOLD, elements=[r_cubed])
    doc["elements"] += [{"matrix": m, "eigenvalues": eig} for m, eig in elements]
    return doc


class TestRawEigenvalueDeclarations:
    """The declared eigenvalues of a raw document must describe one representation rho."""

    R = D4_THREEFOLD["generators"][0]["matrix"]
    R_CUBED = D4_THREEFOLD["elements"][0]["matrix"]

    @pytest.mark.parametrize("matrix,eig,first,second", [
        (R, ["1", "i", "i"], "generators[0]", "elements[1]"),
        (R_CUBED, ["1", "-i", "-i"], "elements[0]", "elements[1]"),
    ], ids=["r-again", "r3-again"])
    def test_conflicting_declarations_exit_1(self, matrix, eig, first, second, tmp_path, capsys):
        path = tmp_path / "d4.json"
        path.write_text(json.dumps(d4_with_elements((matrix, eig))))
        code, _, err = run_cli(["check", str(path)], capsys)
        assert code == 1
        assert "input error" in err
        assert f"{first} and {second} declare different eigenvalues for one matrix" in err

    def test_repeated_equal_declaration_changes_nothing(self, tmp_path, capsys):
        path = tmp_path / "d4.json"
        path.write_text(json.dumps(D4_THREEFOLD))
        expected = run_cli(["albanese", str(path), "--format", "json"], capsys)
        path.write_text(json.dumps(d4_with_elements((self.R, ["1", "i", "-i"]))))
        assert run_cli(["albanese", str(path), "--format", "json"], capsys) == expected

    @pytest.mark.parametrize("command", ["check", "albanese", "invariants", "oracle"])
    def test_determinant_not_a_character_exits_2(self, command, tmp_path, capsys):
        # r^3 declared (1, i, i) fits its characteristic polynomial, but its
        # determinant is -1 while det rho(r)^3 = 1
        doc = dict(D4_THREEFOLD, elements=[dict(D4_THREEFOLD["elements"][0],
                                                eigenvalues=["1", "i", "i"])])
        path = tmp_path / "d4.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli([command, str(path), "--format", "json"], capsys)
        assert code == 2
        failure = ("det rho is not a character: it is not multiplicative on "
                   "element 3 . generator 0 = element 6")
        if command == "check":
            payload = json.loads(out)
            assert payload["eigenvalues_consistent"] is False
            assert payload["failures"] == [failure]
        else:
            assert failure in err


class TestRootSpelling:
    """Messages name a root of unity as documents spell it: 1, -1, i, -i or zeta<n>^<k>."""

    def test_every_root_of_order_at_most_24_reads_back(self):
        for z in {RootOfUnity.of(k, n) for n in range(1, 25) for k in range(n)}:
            assert parse_root_label(str(z)) == z
        named = [RootOfUnity.of(k, n) for k, n in ((0, 1), (1, 2), (1, 4), (3, 4), (1, 3), (5, 6))]
        assert list(map(str, named)) == ["1", "-1", "i", "-i", "zeta3", "zeta6^5"]

    def test_unit_of_another_kind(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(with_generator(BUILDER_SHIFT, zetas=["i", "-1"])))
        code, _, err = run_cli(["check", str(path)], capsys)
        assert code == 2
        assert err == "invalid datum: i is not an automorphism of a generic factor\n"

    def test_declared_eigenvalues_off_the_blocks(self):
        d = get_entry("z4-threefold").build()
        g = d.group.elements[d.group.gens[0]]
        ones = (RootOfUnity.one(),) * len(g.eigenvalues)
        with pytest.raises(InconsistentEigenvalues) as info:
            close_group([AffineAut(g.linear, g.den, g.shift, ones)], d.torus)
        assert str(info.value) == "eigenvalues differ from the blocks' units (1, -1, i)"

    def test_eigenvalues_off_the_characteristic_polynomial(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(with_generator(RAW_INVOLUTION, eigenvalues=["i"])))
        code, out, _ = run_cli(["check", str(path), "--format", "json"], capsys)
        assert code == 2
        assert "RootOfUnity(" not in out
        assert ("element 1: eigenvalues {i: 1, -i: 1} do not match characteristic "
                "polynomial factors {-1: 2}") in json.loads(out)["failures"]


class TestEntryKeys:
    """A key that an entry does not read is an input error (exit 1), not a default."""

    # `translaton` for `translation`: read as a zero translation, the datum
    # failed freeness (exit 2) and the misspelling went unmentioned
    MISSPELT_TRANSLATION = {
        "mode": "builder",
        "factors": [{"kind": "generic"}, {"kind": "gauss"}],
        "generators": [{"zetas": ["1", "i"], "translaton": ["1/4", "0", "0", "0"]}],
    }

    @pytest.mark.parametrize("doc,fragment", [
        (MISSPELT_TRANSLATION, "unknown keys in generators[0]: ['translaton']"),
        (dict(BUILDER_SHIFT, factors=[{"kind": "generic"}, {"kind": "generic", "lable": "E"}]),
         "unknown keys in factors[1]: ['lable']"),
        (with_generator(RAW_INVOLUTION, eigenvalue=["-1"]),
         "unknown keys in generators[0]: ['eigenvalue']"),
        (dict(D4_THREEFOLD, elements=[dict(D4_THREEFOLD["elements"][0], zetas=["1"])]),
         "unknown keys in elements[0]: ['zetas']"),
        (with_generator(BUILDER_SHIFT, blocks=[[[1, 0], [0, 1]], [[-1, 0], [0, -1]]]),
         "generators[0] needs exactly one of 'zetas' and 'blocks'"),
        (dict(BUILDER_SHIFT, generators=[{"translation": ["1/2", "0", "0", "0"]}]),
         "generators[0] needs exactly one of 'zetas' and 'blocks'"),
    ], ids=["builder-translaton", "factor-lable", "raw-eigenvalue", "element-zetas",
            "zetas-and-blocks", "neither"])
    @pytest.mark.parametrize("command", ["check", "albanese", "invariants", "oracle"])
    def test_unread_entry_key_exits_1(self, command, doc, fragment, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli([command, str(path)], capsys)
        assert code == 1
        assert err.startswith("input error:") and fragment in err

    def test_every_allowed_key_is_read(self):
        factors = [{"kind": "generic", "label": "E"}, {"kind": "generic"}]
        blocks = [[[1, 0], [0, 1]], [[-1, 0], [0, -1]]]
        builder = dict(BUILDER_SHIFT, factors=factors,
                       generators=[{"blocks": blocks, "translation": ["1/2", "0", "0", "0"]}])
        datum = build_datum(builder)
        assert element_keys(datum.group) == element_keys(build_datum(BUILDER_SHIFT).group)
        assert datum.torus.factors[0].label == "E"
        assert build_datum(RAW_INVOLUTION).group.order == 2


class TestRawElements:
    """Each raw `elements` entry must name an element of the generated group."""

    R_CUBED = D4_THREEFOLD["elements"][0]

    def r_cubed_translation(self):
        group = build_datum(D4_THREEFOLD).group
        (e,) = (e for e in group.elements if e.linear == tuple(map(tuple, self.R_CUBED["matrix"])))
        return translation(e)

    @pytest.mark.parametrize("doc,fragment", [
        ({"mode": "raw", "rank": 2, "form": [["0", "1"], ["-1", "0"]],
          "elements": [{"matrix": [[-1, 0], [0, -1]], "eigenvalues": ["-1"]}]},
         "elements[0]: its matrix is the linear part of no group element"),
        (dict(RAW_INVOLUTION, elements=[
            {"matrix": [[-1, 0], [0, -1]], "translation": ["1/2", "0"], "eigenvalues": ["-1"]}]),
         "elements[0]: no group element has its matrix and translation"),
    ], ids=["minus-one-not-generated", "wrong-translation"])
    @pytest.mark.parametrize("command", ["check", "albanese", "invariants", "oracle"])
    def test_entry_outside_the_group_exits_1(self, command, doc, fragment, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli([command, str(path)], capsys)
        assert code == 1
        assert err.startswith("input error:") and fragment in err

    def test_wrong_r_cubed_translation_exits_1(self, tmp_path, capsys):
        t = self.r_cubed_translation()
        moved = [str(x + Fraction(1, 2)) if i == 0 else str(x) for i, x in enumerate(t)]
        path = tmp_path / "d4.json"
        path.write_text(json.dumps(
            dict(D4_THREEFOLD, elements=[dict(self.R_CUBED, translation=moved)])))
        code, _, err = run_cli(["check", str(path)], capsys)
        assert code == 1
        assert "elements[0]: no group element has its matrix and translation" in err

    @pytest.mark.parametrize("shift", [0, 1, -2], ids=["same", "plus-lattice", "minus-lattice"])
    def test_r_cubed_translation_mod_lattice_changes_nothing(self, shift, tmp_path, capsys):
        path = tmp_path / "d4.json"
        path.write_text(json.dumps(D4_THREEFOLD))
        expected = run_cli(["albanese", str(path), "--format", "json"], capsys)
        translation = [str(x + shift) for x in self.r_cubed_translation()]
        path.write_text(json.dumps(
            dict(D4_THREEFOLD, elements=[dict(self.R_CUBED, translation=translation)])))
        assert run_cli(["albanese", str(path), "--format", "json"], capsys) == expected


class TestRejectedGroupCost:
    """A group that fails validation costs its closure, not its element orders.

    One generator translating by 1/1024 closes to 1024 pure translations, one
    chain whose words grow to length 1023; walking every element's powers
    along it takes minutes, so no command may do it before rejecting.
    """

    CHAINS = {
        "builder": {
            "mode": "builder",
            "factors": [{"kind": "generic", "label": "tau"}],
            "generators": [{"zetas": ["1"], "translation": ["1/1024", "0"]}],
        },
        "raw": dict(RAW_INVOLUTION, generators=[
            {"matrix": [[1, 0], [0, 1]], "translation": ["1/1024", "0"], "eigenvalues": ["1"]}
        ]),
    }

    @pytest.mark.parametrize("mode", sorted(CHAINS))
    @pytest.mark.parametrize("command", ["check", "albanese", "invariants", "oracle"])
    def test_translation_chain_exits_2_quickly(self, command, mode, tmp_path, capsys):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(self.CHAINS[mode]))
        start = time.perf_counter()
        code, out, err = run_cli([command, str(path)], capsys)
        elapsed = time.perf_counter() - start
        assert code == 2
        assert "nonidentity translations" in (out if command == "check" else err)
        assert elapsed < 5.0


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

    @pytest.mark.parametrize("recurse", [[], ["--recurse"]], ids=["plain", "recurse"])
    def test_albanese_computes_no_hodge_diamond(self, z4_file, recurse, capsys, monkeypatch):
        # the canonical orders are the whole of what albanese reads off the invariants
        expected = run_cli(["albanese", z4_file, *recurse, "--format", "json"], capsys)

        def refuse(*args):
            raise AssertionError("albanese computed a Hodge diamond")

        monkeypatch.setattr("hyperelliptic.invariants.hodge_diamond", refuse)
        assert run_cli(["albanese", z4_file, *recurse, "--format", "json"], capsys) == expected
        assert expected[0] == 0

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

    def test_oracle_counts_fibers_at_any_multiple_of_the_denominator(self, z4_file, capsys):
        # 12 = 3D for z4-threefold; the fiber count needs no level of its own
        code, out, _ = run_cli(
            ["oracle", z4_file, "--level", "12", "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["fiber_count"]["level"] == 12
        assert payload["fiber_count"]["passed"] is True

    def test_catalog_run_all_from_cli(self, capsys):
        code, out, _ = run_cli(["catalog", "list"], capsys)
        for name in out.split():
            code, out2, _ = run_cli(["catalog", "run", name], capsys)
            assert code == 0, (name, out2)


class TestNonCyclicK:
    """K = Lambda/(Lambda_0 + Lambda_1) and its images K0, K1 when K is not cyclic.

    Such a K has many bases and the printed one is not pinned; every basis
    must have the printed orders and span its quotient with the sublattice.
    """

    DOCUMENTS = {
        "z2-squared": {
            "mode": "builder",
            "factors": [{"kind": "generic"}] * 3,
            "k_gens": [["0", "0", "1/2", "0", "1/2", "1/2"], ["1/2", "0", "1/2", "0", "1/2", "0"]],
            "generators": [{"zetas": ["1", "1", "-1"],
                            "translation": ["0", "1/2", "0", "0", "0", "0"]}],
        },
        "z3-squared": {
            "mode": "builder",
            "factors": [{"kind": "generic"}] * 2 + [{"kind": "eisenstein"}] * 2,
            "k_gens": [["1/3", "0", "1/3", "0", "2/3", "-2/3", "0", "0"],
                       ["1/3", "1/6", "0", "1/3", "0", "0", "2/3", "-2/3"]],
            "generators": [{"zetas": ["1", "1", "zeta3", "zeta3"],
                            "translation": ["1/3", "0", "0", "0", "0", "0", "0", "0"]}],
        },
    }

    @pytest.mark.parametrize("name,factor", [("z2-squared", 2), ("z3-squared", 3)])
    def test_printed_bases_span_their_quotients(self, name, factor, tmp_path, capsys):
        doc = self.DOCUMENTS[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["albanese", str(path), "--format", "json"], capsys)
        assert code == 0
        report = json.loads(out)
        n = report["lambda0"]["ambient_rank"]

        def vectors(items):
            return [tuple(Fraction(x) for x in v) for v in items]

        lam0, lam1 = (vectors(report[key]["basis"]) for key in ("lambda0", "lambda1"))
        proj0 = transpose(fixed_projector(build_datum(doc)))  # columns P0 e_i
        rest = [tuple(int(i == j) - x for j, x in enumerate(c)) for i, c in enumerate(proj0)]
        for key, small, image in (
            ("k", lam0 + lam1, identity(n)),
            ("k0", lam0, proj0),
            ("k1", lam1, rest),
        ):
            group = report[key]
            assert group["invariant_factors"] == [factor, factor]
            small_lattice = from_rat_columns(n, small)
            gens = vectors(group["generators"])
            for d, g in zip(group["invariant_factors"], gens, strict=True):
                multiples = [contains(small_lattice, [k * x for x in g]) for k in range(1, d + 1)]
                assert multiples == [False] * (d - 1) + [True], (key, g)
            spanned = from_rat_columns(n, small + gens)
            assert spanned == from_rat_columns(n, image), key


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


# data whose group is trivial: X = A, so q = dim X and the Albanese fiber is a point
TRIVIAL_GROUP_DOCUMENTS = {
    "builder-no-generators": {
        "mode": "builder",
        "factors": [{"kind": "generic"}, {"kind": "gauss"}],
        "generators": [],
    },
    "builder-identity-generator": {
        "mode": "builder",
        "factors": [{"kind": "generic"}],
        "generators": [{"zetas": ["1"]}],
    },
    "raw-no-generators": {"mode": "raw", "rank": 2, "form": [["0", "1"], ["-1", "0"]]},
    "raw-elements-only": {
        "mode": "raw",
        "rank": 2,
        "form": [["0", "1"], ["-1", "0"]],
        "elements": [{"matrix": [[1, 0], [0, 1]], "eigenvalues": ["1"]}],
    },
}


@pytest.fixture(params=sorted(TRIVIAL_GROUP_DOCUMENTS))
def trivial_group_file(request, tmp_path):
    path = tmp_path / f"{request.param}.json"
    path.write_text(json.dumps(TRIVIAL_GROUP_DOCUMENTS[request.param]))
    return str(path)


class TestTrivialGroup:
    @pytest.mark.parametrize("recurse", [[], ["--recurse"]])
    def test_albanese_is_the_torus_over_a_point(self, trivial_group_file, recurse, capsys):
        argv = ["albanese", trivial_group_file, *recurse, "--format"]
        code, out, err = run_cli([*argv, "json"], capsys)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["group_order"] == 1
        assert payload["q"] == payload["dim"]
        assert (payload["fiber"]["kind"], payload["fiber"]["dim"]) == ("abelian", 0)
        assert payload["canonical"]["x_order"] == payload["canonical"]["fiber_order"] == 1
        code, out, err = run_cli([*argv, "text"], capsys)
        assert (code, err) == (0, "")
        dim = payload["dim"]
        assert f"dim X = {dim}, irregularity q = {dim}, |G| = 1" in out
        assert "fiber: abelian of dimension 0" in out

    def test_other_commands_exit_0(self, trivial_group_file, capsys):
        for command in ("check", "invariants", "oracle"):
            for fmt in ("json", "text"):
                code, _, err = run_cli([command, trivial_group_file, "--format", fmt], capsys)
                assert (code, err) == (0, ""), (command, fmt)
        code, out, _ = run_cli(["invariants", trivial_group_file, "--format", "json"], capsys)
        payload = json.loads(out)
        assert payload["q"] == payload["dim"]


class TestExitCodeContract:
    def test_no_traceback_from_a_fresh_process(self, tmp_path):
        # only a new interpreter shows how an exception that escapes main() exits:
        # with a traceback and code 1, which the contract reserves for input errors
        commands = (["check"], ["albanese"], ["albanese", "--recurse"], ["invariants"], ["oracle"])
        for name, doc in sorted(TRIVIAL_GROUP_DOCUMENTS.items()):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            for command in commands:
                for fmt in ("json", "text"):
                    run = run_fresh_cli([*command, str(path), "--format", fmt])
                    assert run.returncode in (0, 1, 2, 3), (name, command, fmt)
                    assert b"Traceback" not in run.stderr, (name, command, fmt)


class TestUnencodableOutput:
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_output_the_terminal_cannot_encode_exits_1(self, fmt, tmp_path):
        # UnicodeEncodeError is a ValueError, but the fault is stdout's, not the
        # datum's; the report is written in one call, so none of it reaches stdout
        factors = [{"kind": "generic", "label": "E_\u03c4"}, {"kind": "generic"}]
        path = tmp_path / "tau.json"
        path.write_text(json.dumps(dict(BUILDER_SHIFT, factors=factors)))
        argv = ["albanese", str(path), "--format", fmt]
        run = run_fresh_cli(argv, PYTHONIOENCODING="ascii")
        assert (run.returncode, run.stdout) == (1, b"")
        assert run.stderr.startswith(b"cannot write output: 'ascii' codec can't encode")
        unicode_run = run_fresh_cli(argv, PYTHONIOENCODING="utf-8")
        assert unicode_run.returncode == 0
        assert "E_\u03c4".encode() in unicode_run.stdout


class TestInternalErrors:
    def test_pipeline_invariant_error_exits_3(self, z4_file, capsys, monkeypatch):
        from hyperelliptic.albanese import PipelineInvariantError

        def boom(*args, **kwargs):
            raise PipelineInvariantError("synthetic failure")

        monkeypatch.setattr("hyperelliptic.cli.run_pipeline", boom)
        code, _, err = run_cli(["albanese", z4_file], capsys)
        assert code == 3
        assert "internal error" in err

    def test_index_identity_catches_a_lost_member_of_h(self, tmp_path, capsys, monkeypatch):
        # on z2z2-threefold H = G; without one member, |G| = |H| [G : H] fails
        from hyperelliptic import albanese

        d = get_entry("z2z2-threefold").build()
        assert len(albanese.run_pipeline(d).subgroup_h) == d.group.order
        compute_H = albanese.compute_H

        def lossy(*args):
            members, index = compute_H(*args)
            return members[:-1], index

        monkeypatch.setattr(albanese, "compute_H", lossy)
        with pytest.raises(albanese.NotASubgroup):
            albanese.run_pipeline(d)
        path = tmp_path / "z2z2.json"
        path.write_text(json.dumps(get_entry("z2z2-threefold").document))
        code, _, err = run_cli(["albanese", str(path)], capsys)
        assert code == 3
        assert "internal error" in err

    def test_unexpected_exception_exits_3_with_its_type(self, z4_file, capsys, monkeypatch):
        # an exception no layer raises on purpose is a bug, not an input error
        from hyperelliptic import albanese

        def broken(*args):
            raise IndexError("synthetic index failure")

        monkeypatch.setattr(albanese, "compute_albanese", broken)
        code, out, err = run_cli(["albanese", z4_file], capsys)
        assert (code, out) == (3, "")
        assert err == "internal error: IndexError: synthetic index failure\n"

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
        # the child imports the package from this checkout, as pytest does
        argv = ["albanese", z4_file, "--recurse", "--format", "json"]
        runs = [run_fresh_cli(argv) for _ in range(2)]
        assert [r.returncode for r in runs] == [0, 0]
        assert runs[0].stdout == runs[1].stdout

    def test_json_round_trip(self, z4_file, capsys):
        code, out, _ = run_cli(["albanese", z4_file, "--format", "json"], capsys)
        payload = json.loads(out)
        assert dumps_canonical(payload) == out
