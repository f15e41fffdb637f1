"""The seeded generator must produce valid, reproducible, in-range models."""

import hashlib

import numpy as np
import pytest

from idjt import randmodels, validate, write_model
from idjt.randmodels import _build, _draw, _leaks, random_model


def _digest(texts):
    return hashlib.sha256("".join(texts).encode()).hexdigest()


def test_the_stream_is_pinned():
    # recorded from the generator that built every draw in full before validating it
    sweep = (write_model(random_model(s, structural_zeros=s % 2 == 1)) for s in range(200))
    assert _digest(sweep) == "adeba78c7b9c0ccc0e7f4a3804a53423d884a8d3b057fc122336d68fda651766"
    # first draws of 20 seeds, kept or not, then one whole model, all at 60 variables
    large = [write_model(_build(_draw(np.random.default_rng(s), 60, 5, 3, False)))
             for s in range(20)]
    large.append(write_model(random_model(0, max_variables=60, max_decisions=5)))
    assert _digest(large) == "1ad7dd640e796d7f9bafc533589c2a5127f3b641488ff7d26da2376eaeca0899"


def test_the_structural_check_agrees_with_validate():
    verdicts = []
    for max_variables, seeds in ((8, 200), (40, 100)):
        for s in range(seeds):
            draw = _draw(np.random.default_rng(s), max_variables, 3, 3, s % 2 == 1)
            kinds = {p.kind for p in validate(_build(draw))}
            assert kinds <= {"temporal"}
            assert _leaks(draw) == ("temporal" in kinds)
            verdicts.append(_leaks(draw))
    assert 0 < sum(verdicts) < len(verdicts)  # rejected and kept draws both occur


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


def test_a_seed_whose_every_draw_is_rejected_raises(monkeypatch):
    monkeypatch.setattr(randmodels, "_leaks", lambda draw: True)
    with pytest.raises(RuntimeError, match="^could not draw a valid model for seed 5$"):
        random_model(5)
