import json

import pytest

from helpers import compose, element_index, element_keys, torus_key
import hyperelliptic.catalog
from hyperelliptic.action import validate
from hyperelliptic.catalog import UnknownEntry, get_entry, list_entries, run_entry
from hyperelliptic.cli import main
from hyperelliptic.documents import build_datum, parse_root_label
from hyperelliptic.torus import EllipticFactor, factor_automorphism_matrix


class TestListing:
    def test_contains_the_named_constructions(self):
        names = list_entries()
        for expected in (
            "bielliptic-1", "bielliptic-2", "bielliptic-3", "bielliptic-4",
            "bielliptic-5", "bielliptic-6", "bielliptic-7",
            "z4-threefold", "z2z2-threefold",
            "zmzm-threefold-m2", "zmzm-threefold-m3",
            "abelian-fiber-construction", "low-irregularity-cyclic",
        ):
            assert expected in names

    def test_unknown_entry(self):
        with pytest.raises(UnknownEntry):
            get_entry("no-such-entry")


class TestRunEntries:
    @pytest.mark.parametrize("name", list_entries())
    def test_empty_diff(self, name):
        assert run_entry(name) == {}

    # z4-threefold has one generator g and H = {1, g^2}; g^2 of the corrupted
    # copy has fixed points.  Index -1 must not be read as the last generator,
    # or the last word list for each key would match.
    @pytest.mark.parametrize("name, key, words", [
        ("z4-threefold", "h_words", [[1]]),
        ("z4-threefold", "h_words", [[-1]]),
        ("z4-threefold", "h_words", [[], [-1, -1]]),
        ("z4-threefold-corrupted", "fixed_point_words", [[1]]),
        ("z4-threefold-corrupted", "fixed_point_words", [[-1]]),
        ("z4-threefold-corrupted", "fixed_point_words", [[-1, -1]]),
    ])
    def test_word_naming_a_missing_generator_is_a_diff(self, monkeypatch, name, key, words):
        entry = get_entry(name)
        patched = entry._replace(expected={**entry.expected, key: words})
        monkeypatch.setitem(hyperelliptic.catalog._ENTRIES, name, patched)
        assert key in run_entry(name)

    def test_every_missing_fixed_point_word_is_listed(self, monkeypatch):
        name = "z4-threefold-corrupted"
        entry = get_entry(name)
        patched = entry._replace(expected={**entry.expected, "fixed_point_words": [[1], [-1]]})
        monkeypatch.setitem(hyperelliptic.catalog._ENTRIES, name, patched)
        assert run_entry(name)["fixed_point_words"]["expected"] == [
            "fixed point at word [1]",
            "fixed point at word [-1]",
        ]

    def test_every_positive_entry_validates(self):
        for name in list_entries():
            entry = get_entry(name)
            datum = entry.build()
            report = validate(datum)
            if entry.expect_invalid:
                assert not report.passed
            else:
                assert report.passed
                assert report.is_hyperelliptic


class TestNegativeFixtures:
    def test_corrupted_z4_fails_exactly_at_the_square(self):
        entry = get_entry("z4-threefold-corrupted")
        datum = entry.build()
        report = validate(datum)
        assert not report.passed
        g = datum.group.elements[datum.group.gens[0]]
        g2 = compose(g, g)
        assert element_index(datum.group, g2) in report.fixed_point_elements

    def test_2_6_configuration_rejected_with_fixed_point_witness(self):
        entry = get_entry("not-all-bielliptic-2-6")
        datum = entry.build()
        report = validate(datum)
        assert not report.passed
        assert report.fixed_point_elements  # the rejection carries a witness
        g2 = datum.group.elements[datum.group.gens[1]]
        power = g2
        for _ in range(3):
            power = compose(power, g2)
        assert element_index(datum.group, power) in report.fixed_point_elements
        # the forcing translation: 2 * t0(g2) hits the K0 part, so an H of
        # order 3 would be required if the datum were free
        assert datum.group.orders[datum.group.gens[1]] in (6, 12)

    def test_2_6_configuration_also_surfaces_a_translation(self):
        entry = get_entry("not-all-bielliptic-2-6")
        datum = entry.build()
        report = validate(datum)
        assert report.nonidentity_translations


class TestDocuments:
    @pytest.mark.parametrize("name", list_entries())
    def test_export_round_trip(self, name):
        entry = get_entry(name)
        rebuilt = build_datum(entry.document)
        original = entry.build()
        assert torus_key(rebuilt.torus) == torus_key(original.torus)
        assert element_keys(rebuilt.group) == element_keys(original.group)
        assert rebuilt.form.matrix == original.form.matrix


@pytest.mark.parametrize("extra", ["repeat", "identity"])
@pytest.mark.parametrize("name", list_entries())
def test_repeated_or_identity_generator_changes_nothing(name, extra, tmp_path, capsys):
    # a generator whose index is a repeat, or 0, closes to the same elements
    # in the same order, and every report reads the same bytes
    doc = get_entry(name).document
    identity = {"zetas": ["1"] * len(doc["factors"])}
    generator = doc["generators"][0] if extra == "repeat" else identity
    extended = dict(doc, generators=[*doc["generators"], generator])
    group = build_datum(doc).group
    assert element_keys(build_datum(extended).group) == element_keys(group)
    assert build_datum(extended).group.gens[-1] == (group.gens[0] if extra == "repeat" else 0)
    assert json_reports(extended, tmp_path, capsys) == json_reports(doc, tmp_path, capsys)


def json_reports(doc, tmp_path, capsys) -> list:
    """Exit code and captured output of four commands on the document, in json format."""
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(doc))
    runs = []
    for command in (["check"], ["albanese", "--recurse"], ["invariants"], ["oracle"]):
        code = main([command[0], str(path), *command[1:], "--format", "json"])
        runs.append((code, capsys.readouterr()))
    return runs


def with_blocks(doc) -> dict:
    """The builder document with each generator's `zetas` respelled as its integer `blocks`."""
    factors = [EllipticFactor(f["kind"]) for f in doc["factors"]]
    generators = []
    for spec in doc["generators"]:
        blocks = [
            [list(row) for row in factor_automorphism_matrix(f, parse_root_label(z))]
            for f, z in zip(factors, spec["zetas"])
        ]
        generators.append({"blocks": blocks, "translation": spec["translation"]})
    return dict(doc, generators=generators)


@pytest.mark.parametrize("name", list_entries())
def test_blocks_spelling_reads_as_the_zetas_spelling(name, tmp_path, capsys):
    # the `blocks` path of the builder reader, on every kind of factor the
    # catalog uses, gives the same exit codes and reports as `zetas`
    doc = get_entry(name).document
    assert json_reports(with_blocks(doc), tmp_path, capsys) == json_reports(doc, tmp_path, capsys)
