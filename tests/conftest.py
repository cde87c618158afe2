import pytest

from resolvent_asym import quadrature


@pytest.fixture
def engine_constants(monkeypatch):
    """A setter for the adaptive engine's tolerance and refinement budget.

    engine_constants(rel_tol, max_refinements) replaces quadrature._REL_TOL
    and quadrature._MAX_REFINEMENTS until the test ends; it may be called
    more than once in a test.
    """

    def set_constants(rel_tol: float, max_refinements: int) -> None:
        monkeypatch.setattr(quadrature, "_REL_TOL", rel_tol)
        monkeypatch.setattr(quadrature, "_MAX_REFINEMENTS", max_refinements)

    return set_constants
