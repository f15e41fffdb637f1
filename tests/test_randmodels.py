"""The seeded generator must produce valid, reproducible, in-range models."""

import numpy as np

from idjt import validate, write_model
from idjt.randmodels import random_model


def test_generator_is_reproducible():
    for seed in (0, 7, 123):
        assert write_model(random_model(seed)) == write_model(random_model(seed))


def test_generated_models_are_valid_and_in_range():
    for seed in range(40):
        m = random_model(seed)
        assert validate(m) == []
        assert 3 <= len(m.variables) <= 8
        assert 1 <= len(m.decisions) <= 3
        assert all(2 <= len(v.states) <= 3 for v in m.variables)
        assert 1 <= len(m.utilities) <= 3
        for u in m.utilities:
            assert np.all(np.abs(u.table.values) <= 10.0)


def test_structural_zero_variant_actually_produces_zeros():
    hits = 0
    for seed in range(20):
        m = random_model(seed, structural_zeros=True)
        assert validate(m) == []
        if any(np.any(cpt.values == 0.0) for cpt in m.cpts.values()):
            hits += 1
    assert hits >= 15
