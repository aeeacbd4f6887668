import pytest

from psbmetric import contraction


class PlaneTests(list):
    """The outcome of the walk's test of each a-plane, in walk order: True
    for a plane decided by its bound, False for one evaluated. `forced`,
    when a bool, is what every plane's test gives instead; the rows' tests
    are left as they are."""

    forced = None


@pytest.fixture
def cleared_planes(monkeypatch):
    """PlaneTests of every certificate walk. Inside `_certificates`, each
    `_plane_bounds` starts a plane, and the first `_clears` after it is
    that plane's test; a plane with no pieces has none and is evaluated."""
    real_walk, real_bounds, real_clears = contraction._certificates, contraction.InequalitySides._plane_bounds, contraction._clears
    outcomes, state = PlaneTests(), {"walking": False, "plane": False}

    def walk(*args, **kwargs):
        state["walking"] = True
        try:
            return real_walk(*args, **kwargs)
        finally:
            state["walking"] = state["plane"] = False

    def bounds(sides, a, factors):
        if state["walking"]:
            outcomes.append(False)
            state["plane"] = True
        return real_bounds(sides, a, factors)

    def clears(*args):
        if not state["plane"]:
            return real_clears(*args)
        state["plane"] = False
        outcomes[-1] = real_clears(*args) if outcomes.forced is None else outcomes.forced
        return outcomes[-1]

    monkeypatch.setattr(contraction, "_certificates", walk)
    monkeypatch.setattr(contraction.InequalitySides, "_plane_bounds", bounds)
    monkeypatch.setattr(contraction, "_clears", clears)
    return outcomes
