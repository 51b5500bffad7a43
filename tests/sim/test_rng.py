"""Counter-based draws: the key material must not change.

Residency, fault and backoff decisions are all ``decision_uniform``
draws, so any change to how the key is turned into bytes would move
every pool placement and every injected fault.
"""

import hashlib

import pytest

from repro.sim.rng import decision_uniform


def reference_decision_uniform(seed, *key):
    """The original formula, kept as the oracle."""
    material = ":".join(str(part) for part in (seed, *key))
    digest = hashlib.blake2b(material.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") / 2.0 ** 64


KEYS = [
    (),
    (0,),
    (-1,),
    (2 ** 63 + 5,),
    ("resident", 3, 199_999),
    ("resil-backoff", 41, 2),
    ("host1", "stall", 17),
    ("host0", "poison", 5, "h", 1),
    (1.5, -0.0, float("inf")),
    (True, False, None),
    ((7, "h", 2),),
    ("crc", (3,), 0, 1),
]


@pytest.mark.parametrize("key", KEYS, ids=repr)
@pytest.mark.parametrize("seed", [0, 7, -13, 2 ** 40])
def test_matches_the_reference_formula(seed, key):
    assert decision_uniform(seed, *key) == \
        reference_decision_uniform(seed, *key)


def test_values_stay_in_the_unit_interval():
    values = [decision_uniform(3, "u", index) for index in range(500)]
    assert all(0.0 <= value < 1.0 for value in values)
