import pytest

import lqframes.solvers as solvers


@pytest.fixture
def record_iterates(monkeypatch):
    """One ``(iterates, sigmas)`` pair per solve in the test: the start point, then each step's f, and each step's sigma."""
    solves = []
    reweight = solvers._reweight

    def recording(problem, config, f, coeffs, step):
        iterates, sigmas = [f.copy()], []
        solves.append((iterates, sigmas))

        def recorded(coeffs, sigma):
            out = step(coeffs, sigma)
            iterates.append(out[0].copy())
            sigmas.append(sigma)
            return out

        return reweight(problem, config, f, coeffs, recorded)

    monkeypatch.setattr(solvers, "_reweight", recording)
    return solves
