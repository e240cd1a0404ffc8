import json
from pathlib import Path

from pennyflip.angles import Angle
from pennyflip.dihedral import FLIP, HADAMARD, IDENTITY, PlanarIsometry
from pennyflip.games import (PQG, GameSpec, Strategy, classify_strategies,
                             decide_extended_game,
                             enumerate_winning_strategies)
from pennyflip.orbits import stabilizer
from pennyflip.reports import (dump_json, element_set_json,
                               element_set_name, game_report, isometry_name,
                               path_name, state_set_name, strategy_name,
                               table_winning_classes)
from pennyflip.states import KET_MINUS, KET_PLUS, KET_ZERO

GOLDEN = Path(__file__).parent / "golden"


def classes_d8():
    winners = enumerate_winning_strategies(PQG, 8)
    return winners, classify_strategies(winners, KET_ZERO)


class TestNaming:
    def test_named_letters(self):
        assert isometry_name(IDENTITY) == "I"
        assert isometry_name(FLIP) == "F"
        assert isometry_name(HADAMARD) == "H"

    def test_eighth_grid_names(self):
        assert isometry_name(PlanarIsometry.rotor(Angle(1, 4))) == "R_{2π/8}"
        assert isometry_name(PlanarIsometry.reflector(Angle(5, 8))) == "S_{5π/8}"
        assert isometry_name(PlanarIsometry.rotor(Angle(1))) == "R_π"
        assert isometry_name(PlanarIsometry.reflector(Angle(0))) == "S_0"

    def test_off_grid_fallback(self):
        assert isometry_name(PlanarIsometry.rotor(Angle(2, 7))) == "R_{2/7·π}"

    def test_strategy_and_path_names(self):
        assert strategy_name(Strategy("Q", (HADAMARD, HADAMARD))) == "(H, H)"
        assert path_name((KET_ZERO, KET_PLUS, KET_ZERO)) == "(|0⟩, |+⟩, |0⟩)"
        assert state_set_name((KET_PLUS, KET_MINUS)) == "{|+⟩, |−⟩}"

    def test_stabilizer_renders_with_group_letters(self):
        names = element_set_name(stabilizer(8, KET_PLUS))
        assert names == "{I, R_π, F, S_{6π/8}}"


class TestMarkdownTables:
    def test_winning_classes_table_matches_golden(self):
        _, classes = classes_d8()
        rendered = table_winning_classes(classes, PQG.turns)
        assert rendered == (GOLDEN / "table_winning_classes.md").read_text()
        for required in ("(H, H)", "(R_{2π/8}, R_{14π/8})",
                         "(S_{5π/8}, S_{5π/8})", "(S_{7π/8}, S_{7π/8})",
                         "|+⟩", "|−⟩"):
            assert required in rendered

    def test_winning_classes_table_follows_the_turns(self):
        spec = GameSpec.from_string("QPQPQ")
        classes = classify_strategies(
            enumerate_winning_strategies(spec, 8), spec.initial)
        lines = table_winning_classes(classes, spec.turns).splitlines()
        assert classes and len(lines) == 2 + len(classes)
        for line in lines:
            # ket names contain "|", so cells split on " | " only
            assert len(line[2:-2].split(" | ")) == 7


class TestJson:
    def test_game_report_matches_golden(self):
        winners, classes = classes_d8()
        payload = game_report(PQG, decide_extended_game(PQG), classes,
                              len(winners))
        rendered = dump_json(payload) + "\n"
        assert rendered == (GOLDEN / "game_report.json").read_text()

    def test_report_is_deterministic_and_parseable(self):
        winners, classes = classes_d8()
        payload = game_report(PQG, decide_extended_game(PQG), classes,
                              len(winners))
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
