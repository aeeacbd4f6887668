import pytest

from psbmetric import contraction


@pytest.fixture
def cleared_planes(monkeypatch):
    """The outcome of `contraction._cleared` per a-plane walked, in walk
    order: True for a plane decided by its bound, False for one evaluated."""
    real, outcomes = contraction._cleared, []

    def recording(bounds, specs, pieces, min_margins):
        outcomes.append(real(bounds, specs, pieces, min_margins))
        return outcomes[-1]

    monkeypatch.setattr(contraction, "_cleared", recording)
    return outcomes
