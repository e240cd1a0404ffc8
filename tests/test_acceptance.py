"""Acceptance suite: each paper claim is derived once, by its ``verify-all``
check at the default configuration.

Each test runs its checks, asserts that they pass and pins the paper's
numbers in their details.  Run with ``pytest tests/test_acceptance.py -s``
to see one PASS/FAIL line per check.
"""

from pennyflip import verify
from pennyflip.config import Config

PATHS = [["|0⟩", "|+⟩", "|0⟩"], ["|0⟩", "|−⟩", "|0⟩"]]
BASIS_STABILIZER = ["e", "r^4", "r^4 s", "s"]
DIAGONAL_STABILIZER = ["e", "r^2 s", "r^4", "r^6 s"]

#: The details each check must report at the default configuration.
PINS = {
    "winning-classes-d8": {
        "strategies": 32, "classSizes": [16, 16], "paths": PATHS},
    "winning-classes-stable": {
        f"D_{n}": {"strategies": 32, "identical": True} for n in (16, 24, 32)},
    "small-groups": {
        f"D_{n}": {"flipPresent": n == 4, "qWinning": 0} for n in range(3, 8)},
    "fixed-set-dichotomy": {"nRange": [3, 64], "failures": []},
    "orbit-structure": {"nRange": [3, 64], "failures": []},
    "stabilizers-d8": {
        "|0⟩": BASIS_STABILIZER, "|1⟩": BASIS_STABILIZER,
        "|+⟩": DIAGONAL_STABILIZER, "|−⟩": DIAGONAL_STABILIZER},
    "extended-games": {"games": 64, "failures": []},
    "flip-eigensystem": {"eigenvalues": [1.0, -1.0]},
    "phase-families": {"gridPoints": 100, "failures": 0},
    "u2-sampling": {"samples": 10_000, "hits": 0, "stateMismatches": 0},
    "representation-homomorphism": {
        "pairFailures": [], "closureSize": 16, "closureMatchesD8": True},
    "probability-identities": {"halfExact": True},
}


def passes(check_id):
    fn = next(fn for cid, _, fn in verify.CHECKS if cid == check_id)
    ok, details = fn(Config())
    pinned = {key: details.get(key) for key in PINS[check_id]}
    good = ok is True and pinned == PINS[check_id]
    print(f"{'PASS' if good else 'FAIL'} {check_id}")
    assert ok is True
    assert pinned == PINS[check_id]


def test_every_check_is_pinned():
    assert list(PINS) == [check_id for check_id, _, _ in verify.CHECKS]


def test_criterion_1_d8_enumeration():
    passes("winning-classes-d8")


def test_criterion_2_stability_under_enlargement():
    passes("winning-classes-stable")


def test_criterion_3_small_groups():
    passes("small-groups")


def test_criterion_4_fixed_set_dichotomy():
    passes("fixed-set-dichotomy")


def test_criterion_5_orbit_structure():
    passes("orbit-structure")


def test_criterion_6_d8_stabilizers():
    passes("stabilizers-d8")


def test_criterion_7_extended_games():
    passes("extended-games")


def test_criterion_8_u2_layer():
    for check_id in ("flip-eigensystem", "phase-families", "u2-sampling"):
        passes(check_id)


def test_criterion_9_representation_homomorphism():
    passes("representation-homomorphism")


def test_criterion_10_probability_identities():
    passes("probability-identities")
