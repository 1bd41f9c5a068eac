"""Every weak-similarity witness, an isometry's and a 4-cycle model's alike,
comes from ``weakly_similar``, which verifies it."""

import pytest

from starmetric import InternalCheckError, X4, Y4, are_isometric, classify_forbidden
from starmetric import similarity


class TestOneWitnessSource:
    def test_are_isometric_verifies_what_it_returns(self, monkeypatch):
        # swapping x1 and x2 carries d(x1, x3) = 1 to d(x2, x3) = 3
        monkeypatch.setattr(similarity, "_match_ranks", lambda ra, rb: [1, 0, 2, 3])
        with pytest.raises(InternalCheckError):
            are_isometric(X4, X4)

    @pytest.mark.parametrize("space", [X4, Y4], ids=["X4", "Y4"])
    def test_a_4_cycle_matching_neither_model_is_a_bug(self, monkeypatch, space):
        monkeypatch.setattr(similarity, "weakly_similar", lambda a, b: None)
        with pytest.raises(InternalCheckError):
            classify_forbidden(space)
