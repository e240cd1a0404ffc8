import ast
import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pennyflip
from pennyflip import orbits, reports, verify
from pennyflip.angles import Angle, pi_text
from pennyflip.config import N_MAX
from pennyflip.dihedral import (FLIP, HADAMARD, IDENTITY, DihedralElement,
                                PlanarIsometry, elements, isometries,
                                represent)
from pennyflip.games import (PQG, Decision, GameSpec, Strategy,
                             decide_extended_game, winning_classes)
from pennyflip.orbits import stabilizer
from pennyflip.reports import (check_rows, checks_markdown, class_json,
                               classes_markdown, decision_markdown,
                               decision_text, dump_json, element_set_text,
                               game_report, state_set_text,
                               table_winning_classes)
from pennyflip.states import (KET_MINUS, KET_ONE, KET_PLUS, KET_ZERO,
                              CoinState, state_text)

GOLDEN = Path(__file__).parent / "golden"


# -- The dict payloads the row-set writers replace, kept as their oracle ---

def state_set_json(states):
    return [{"phi": (phi := pi_text(p, q)), "name": state_text(p, q, phi)}
            for p, q in [s.phi.as_integer_ratio() for s in states]]


def element_set_json(elems):
    return [{"n": g.n, "k": g.k, "reflect": g.reflect,
             "name": str(represent(g))} for g in elems]


def names_markdown(rows):
    return "{" + ", ".join(row["name"] for row in rows) + "}\n"


def classes_d8():
    return winning_classes(PQG, 8)


R, S = PlanarIsometry, functools.partial(PlanarIsometry, reflect=True)
#: The off-grid section of the names golden, in file order.
OFF_GRID = (R(Angle(2, 7)), R(Angle(1, 3)), R(Angle(5, 12)), R(Angle(1, 16)),
            R(Angle(31, 16)), S(Angle(1, 5)), S(Angle(2, 3)),
            S(Angle(1, 16)), S(Angle(7, 24)))


def golden_sections(path):
    """``{"# D_8": [names...], ...}`` from a file of ``#``-headed sections."""
    sections = {}
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            names = sections[line] = []
        else:
            names.append(line)
    return sections


def proper_prefixes(names):
    """The pairs of sorted neighbours where one name is a proper prefix of
    the next; a name with any proper extension has one as its neighbour."""
    ordered = sorted(set(names))
    return [(a, b) for a, b in zip(ordered, ordered[1:]) if b.startswith(a)]


class TestNaming:
    def test_named_letters(self):
        assert str(IDENTITY) == "I"
        assert str(FLIP) == "F"
        assert str(HADAMARD) == "H"

    def test_eighth_grid_names(self):
        assert str(R(Angle(1, 4))) == "R_{2π/8}"
        assert str(S(Angle(5, 8))) == "S_{5π/8}"
        assert str(R(Angle(1))) == "R_π"
        assert str(S(Angle(0))) == "S_0"

    def test_off_grid_fallback(self):
        assert str(R(Angle(2, 7))) == "R_{2/7·π}"

    def test_names_match_golden(self):
        sections = golden_sections(GOLDEN / "isometry_names.txt")
        expected = {f"# D_{n}": isometries(n) for n in [*range(3, 17), 24]}
        expected["# off the π/8 grid"] = OFF_GRID
        assert list(sections) == list(expected)
        for header, ps in expected.items():
            assert [str(p) for p in ps] == sections[header], header
            assert [PlanarIsometry.parse(str(p)) for p in ps] == list(ps), header

    # sorting strategies by their names compares them move by move only
    # while no isometry name is a proper prefix of another
    def test_golden_names_are_prefix_free(self):
        sections = golden_sections(GOLDEN / "isometry_names.txt")
        names = [name for section in sections.values() for name in section]
        assert proper_prefixes(names) == []

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=3, max_value=N_MAX))
    def test_group_names_are_prefix_free(self, n):
        names = [str(represent(g)) for g in elements(n)]
        assert len(set(names)) == 2 * n
        assert proper_prefixes(names) == []

    def test_strategy_and_path_names(self):
        assert str(Strategy("Q", (HADAMARD, HADAMARD))) == "(H, H)"
        first = classes_d8()[0]
        assert first.path == (KET_ZERO, KET_PLUS, KET_ZERO)
        assert classes_markdown([class_json(first)]).startswith(
            "(|0⟩, |+⟩, |0⟩): 16 strategies, e.g. ")
        states = state_set_json((KET_PLUS, KET_MINUS))
        assert names_markdown(states) == "{|+⟩, |−⟩}\n"

    def test_stabilizer_renders_with_group_letters(self):
        names = names_markdown(element_set_json(stabilizer(8, KET_PLUS)))
        assert names == "{I, R_π, F, S_{6π/8}}\n"


class TestMarkdownTables:
    def test_winning_classes_table_matches_golden(self):
        rendered = table_winning_classes(classes_d8(), PQG.turns)
        assert rendered == (GOLDEN / "table_winning_classes.md").read_text()
        for required in ("(H, H)", "(R_{2π/8}, R_{14π/8})",
                         "(S_{5π/8}, S_{5π/8})", "(S_{7π/8}, S_{7π/8})",
                         "|+⟩", "|−⟩"):
            assert required in rendered

    def test_winning_classes_table_follows_the_turns(self):
        spec = GameSpec.from_string("QPQPQ")
        classes = winning_classes(spec, 8)
        lines = table_winning_classes(classes, spec.turns).splitlines()
        assert classes and len(lines) == 2 + len(classes)
        for line in lines:
            # ket names contain "|", so cells split on " | " only
            assert len(line[2:-2].split(" | ")) == 7


class TestJson:
    def test_game_report_matches_golden(self):
        payload = game_report(PQG, decide_extended_game(PQG), classes_d8())
        rendered = dump_json(payload) + "\n"
        assert rendered == (GOLDEN / "game_report.json").read_text()

    def test_report_is_deterministic_and_parseable(self):
        payload = game_report(PQG, decide_extended_game(PQG), classes_d8())
        a, b = dump_json(payload), dump_json(payload)
        assert a == b
        parsed = json.loads(a)
        assert parsed["strategyCount"] == 32
        assert parsed["decision"] == "Q wins"
        assert [c["size"] for c in parsed["classes"]] == [16, 16]

    def test_element_json_roundtrip_names(self):
        rows = element_set_json(stabilizer(8, KET_ZERO))
        assert rows == [
            {"n": 8, "k": 0, "reflect": False, "name": "I"},
            {"n": 8, "k": 4, "reflect": False, "name": "R_π"},
            {"n": 8, "k": 0, "reflect": True, "name": "S_0"},
            {"n": 8, "k": 4, "reflect": True, "name": "S_{4π/8}"},
        ]

    def test_element_keys(self):
        rows = element_set_json([DihedralElement(8, 5, True),
                                 DihedralElement(12, 7)])
        assert rows == [
            {"n": 8, "k": 5, "reflect": True, "name": "S_{5π/8}"},
            {"n": 12, "k": 7, "reflect": False, "name": "R_{7/6·π}"},
        ]


def stdlib_json(payload):
    """The text ``dump_json`` must equal, from the standard library."""
    return json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True)


#: Text with JSON's escapes, control characters, U+2028, a ket bracket and
#: text outside the Basic Multilingual Plane.
TEXT = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\u2028⟩𝜋😀'),
                         st.characters()), max_size=6)
FLOATS = st.one_of(st.floats(), st.sampled_from(
    [-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf]))
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70),
                   FLOATS, FLOATS.map(np.float64), TEXT)
TREES = st.recursive(LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(TEXT, kids, max_size=4)), max_leaves=16)


@st.composite
def deep_trees(draw):
    """A tree at the bottom of a chain of four to six containers, each
    with drawn siblings, so that empty and full ones sit at every depth."""
    tree = draw(TREES)
    for kind in draw(st.lists(st.sampled_from([dict, list, tuple]),
                              min_size=4, max_size=6)):
        if kind is dict:
            tree = {**draw(st.dictionaries(TEXT, TREES, max_size=1)),
                    draw(TEXT): tree}
        else:
            tree = kind([*draw(st.lists(TREES, max_size=1)), tree])
    return tree


class TestDumpJson:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(TREES, deep_trees()))
    def test_matches_the_standard_library(self, payload):
        assert dump_json(payload) == stdlib_json(payload)

    @pytest.mark.parametrize("payload", [
        [], {}, (), "", 0, -0.0, math.nan, np.float64(-math.inf),
        [[], {}, [()]], {"a": {"b": [{"c": ({},)}]}}, True, None])
    def test_edge_rows(self, payload):
        assert dump_json(payload) == stdlib_json(payload)

    @pytest.mark.parametrize("payload", [
        {1: "a"}, {"a": {None: 1}}, {"a": 1, 2: "b"}, {1, 2}, [{"a": {1}}],
        {"a": b"bytes"}, np.int64(3)],
        ids=["int-key", "none-key", "mixed-keys", "set", "nested-set",
             "bytes", "numpy-int"])
    def test_unsupported_raises_type_error(self, payload):
        with pytest.raises(TypeError):
            dump_json(payload)


class TestObjectHeads:
    """A dict's sorted keys, heads and closing text come from a cache keyed
    on its keys in insertion order and its indent."""

    def test_one_key_set_in_two_insertion_orders(self):
        first = {"phi": "0", "name": "|0⟩", "k": 1}
        second = dict(reversed(first.items()))
        assert tuple(first) != tuple(second)
        for payload in (first, second, [first, second], [second, first]):
            assert dump_json(payload) == stdlib_json(payload)

    def test_one_shape_at_two_depths(self):
        row = {"b": 1, "a": [2, {"b": 3, "a": None}]}
        payload = [row, {"row": row}, [[row]], row]
        assert dump_json(payload) == stdlib_json(payload)

    def test_more_shapes_than_the_cache_holds(self):
        size = reports._object_heads.cache_info().maxsize
        shapes = [{f"k{i}": i, f"j{i % 7}": [i], "a": {f"k{i}": None}}
                  for i in range(2 * size + 3)]
        for payload in (shapes, shapes[::-1], *shapes):
            assert dump_json(payload) == stdlib_json(payload)

    def test_a_non_string_key_raises_after_its_string_was_cached(self):
        assert dump_json({"1": 0, "a": 1}) == stdlib_json({"1": 0, "a": 1})
        for payload in ({1: 0, "a": 1}, {True: 0}, [{"a": 0}, {0: "a"}]):
            for _ in range(2):
                with pytest.raises(TypeError):
                    dump_json(payload)


KETS = (KET_ZERO, KET_PLUS, KET_ONE, KET_MINUS)


@st.composite
def groups_and_states(draw):
    """n in 3..1024 and a state: a ket, or j/m·π with m on the 2n grid,
    a multiple of it, or any m up to 4n + 1."""
    n = draw(st.integers(3, 1024))
    m = draw(st.sampled_from([2 * n, 4 * n, 2 * n + 1])
             | st.integers(1, 4 * n + 1))
    return n, draw(st.sampled_from(KETS) | st.integers(-2 * m, 2 * m).map(
        lambda j: CoinState.of(j, m)))


def assert_writes(write, items, oracle):
    """*write* prints *items* as ``json.dumps`` prints their *oracle*
    rows, and as the Markdown set of those rows' names."""
    rows = oracle(items)
    assert write(items, "json") == stdlib_json(rows) + "\n"
    assert write(items, "markdown") == names_markdown(rows)


class TestRowSets:
    """``state_set_text`` and ``element_set_text`` against the dict rows
    ``dump_json`` and the Markdown renderer read before them."""

    @settings(max_examples=150, deadline=None)
    @given(groups_and_states())
    def test_orbit_and_stabilizer(self, case):
        n, x = case
        assert_writes(state_set_text, orbits.orbit(n, x), state_set_json)
        assert_writes(element_set_text, orbits.stabilizer(n, x),
                      element_set_json)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(3, 1024).flatmap(lambda n: st.lists(
        st.builds(DihedralElement, st.just(n), st.integers(0, n - 1),
                  st.booleans()), min_size=1, max_size=3)))
    def test_fixed_set(self, elems):
        n = elems[0].n
        assert_writes(state_set_text,
                      orbits.fixed_set(n, [represent(g) for g in elems]),
                      state_set_json)

    def test_empty_fixed_set(self):
        states = orbits.fixed_set(12, [IDENTITY, FLIP])
        assert states == ()
        assert state_set_text(states, "json") == "[]\n"
        assert state_set_text(states, "markdown") == "{}\n"
        assert_writes(state_set_text, states, state_set_json)

    def test_stabilizers_at_n_1024(self):
        for x in (*KETS, CoinState.of(1, 5), CoinState.of(3, 2048),
                  CoinState.of(1, 1024)):
            elems = orbits.stabilizer(1024, x)
            assert elems, x
            assert_writes(element_set_text, elems, element_set_json)

    def test_rows_holding_plus_and_minus(self):
        for states in ((KET_PLUS, KET_MINUS), orbits.orbit(8, KET_PLUS),
                       orbits.fixed_set(8, [FLIP])):
            assert {KET_PLUS, KET_MINUS} <= set(states)
            assert_writes(state_set_text, states, state_set_json)
        assert state_set_text((KET_PLUS, KET_MINUS), "markdown") == (
            "{|+⟩, |−⟩}\n")


class TestDecisionTexts:
    def test_the_three_texts(self):
        strategy = Strategy("Q", (HADAMARD, HADAMARD))
        assert decision_text(Decision(True, strategy)) == "Q wins"
        assert decision_text(Decision(False, None, True)) == "P wins"
        assert (decision_text(Decision(False))
                == "no winning strategy for either player")
        assert game_report(PQG, Decision(False, None, True))["decision"] == (
            "P wins")

    def test_markdown_renders_the_brute_force_verdict(self):
        report = {"turns": "QPQ", "decision": "Q wins", "strategy": "(H, H)"}
        assert decision_markdown(report) == "QPQ: Q wins with (H, H)\n"
        assert (decision_markdown(dict(report, bruteForceAgrees=True))
                == "QPQ: Q wins with (H, H); brute force agrees\n")
        assert (decision_markdown(dict(report, bruteForceAgrees=False))
                == "QPQ: Q wins with (H, H); brute force disagrees\n")


class TestCheckRows:
    RESULTS = [("a", "claim a", True, {"x": 1}, 0.0123),
               ("b", "claim b", False, {}, 1.5),
               ("c", "claim c", None, {"skipped": "why"}, 0.0)]

    def test_status_words_and_envelope(self):
        rows = check_rows(self.RESULTS)
        assert rows[0] == {"checkId": "a", "claimRef": "claim a",
                           "status": "pass", "details": {"x": 1},
                           "elapsedMs": 0}
        assert [r["status"] for r in rows] == ["pass", "fail", "skipped"]
        assert checks_markdown(rows) == ("[pass] a — claim a\n"
                                         "[fail] b — claim b\n"
                                         "[skipped] c — claim c\n")

    def test_elapsed_only_with_timings(self):
        assert [r["elapsedMs"] for r in check_rows(self.RESULTS)] == [0, 0, 0]
        assert [r["elapsedMs"] for r in check_rows(self.RESULTS, True)] == [
            12, 1500, 0]

    def test_failing_reads_ok_only(self):
        assert verify.failing(self.RESULTS) == ["b"]


#: Strings that only ``reports`` may hold: the row envelope of ``verify-all``
#: and the decision texts.  The status words are left out, since a check's
#: own details may use one as a key (``u2-sampling``'s ``"skipped"``).
REPORT_ONLY = {"checkId", "claimRef", "status", "details", "elapsedMs",
               "Q wins", "P wins", "no winning strategy for either player"}


def report_only_strings(source):
    return sorted({node.value for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Constant)
                   and node.value in REPORT_ONLY})


class TestReportsOwnTheOutput:
    def test_no_other_module_holds_a_row_key_or_decision_text(self):
        package = Path(pennyflip.__file__).parent
        sources = sorted(p for p in package.glob("*.py")
                         if p.name != "reports.py")
        assert sources
        found = {p.name: report_only_strings(p.read_text(encoding="utf-8"))
                 for p in sources}
        assert {name: keys for name, keys in found.items() if keys} == {}

    def test_guard_sees_a_planted_text(self):
        assert report_only_strings('TEXT = "Q wins"\n') == ["Q wins"]

    def test_elements_build_no_json(self):
        assert not hasattr(DihedralElement, "to_json")
