import pytest

import lqframes.solvers as solvers


@pytest.fixture
def record_iterates(monkeypatch):
    """The iterates of every solve in the test, one list per solve: the start point, then each step's f."""
    solves = []
    reweight = solvers._reweight

    def recording(problem, config, f, coeffs, step):
        iterates = [f.copy()]
        solves.append(iterates)

        def recorded(coeffs, sigma):
            out = step(coeffs, sigma)
            iterates.append(out[0].copy())
            return out

        return reweight(problem, config, f, coeffs, recorded)

    monkeypatch.setattr(solvers, "_reweight", recording)
    return solves
