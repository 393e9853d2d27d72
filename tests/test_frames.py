import re

import numpy as np
import pytest

from lqframes import (
    Frame,
    GenerationFailedError,
    InvalidParametersError,
    canonical_dual,
    cosparse_signal,
    frame_bounds,
    hard_threshold,
    load_matrix,
    mutual_coherence,
    random_tight_frame,
)
from lqframes.experiments import _spikes_and_waves


def test_frame_bounds_identity():
    assert frame_bounds(np.eye(4)) == (pytest.approx(1.0), pytest.approx(1.0))


def test_frame_bounds_duplicated_atom():
    # D = [e1 e2 e1]: D D^T = diag(2, 1), eigenvalues by hand
    D = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    lo, hi = frame_bounds(D)
    assert lo == pytest.approx(1.0)
    assert hi == pytest.approx(2.0)


def test_frame_bounds_random_tight():
    fr = random_tight_frame(100, 110, 42)
    lo, hi = frame_bounds(fr.matrix)
    assert abs(lo - 1.0) <= 1e-10
    assert abs(hi - 1.0) <= 1e-10


def test_frame_bounds_rejects_rank_deficient():
    with pytest.raises(InvalidParametersError, match="^matrix rows do not span the ambient space$"):
        frame_bounds(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_frame_bounds_rejects_tall_matrix():
    with pytest.raises(InvalidParametersError):
        frame_bounds(np.ones((3, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_from_matrix_rejects_non_finite_entries(bad):
    matrix = np.eye(3)
    matrix[1, 2] = bad
    with pytest.raises(InvalidParametersError, match="^matrix holds non-finite"):
        Frame.from_matrix(matrix)


def test_frame_condition():
    fr = Frame.from_matrix(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    assert fr.condition == pytest.approx(2.0)


def test_canonical_dual_of_tight_frame_is_itself():
    fr = random_tight_frame(6, 9, 0)
    dual = canonical_dual(fr)
    np.testing.assert_allclose(dual.matrix, fr.matrix, atol=1e-12)


def test_canonical_dual_duplicated_atom():
    # invert diag(2, 1): rows scaled by (1/2, 1)
    D = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    dual = canonical_dual(Frame.from_matrix(D))
    np.testing.assert_allclose(dual.matrix, np.diag([0.5, 1.0]) @ D, atol=1e-12)
    assert dual.lower_bound == pytest.approx(0.5)
    assert dual.upper_bound == pytest.approx(1.0)


def test_canonical_dual_identity_property():
    rng = np.random.default_rng(1)
    D = rng.standard_normal((5, 8))
    fr = Frame.from_matrix(D)
    dual = canonical_dual(fr)
    np.testing.assert_allclose(dual.matrix @ D.T, np.eye(5), atol=1e-10)


def test_canonical_dual_involution():
    rng = np.random.default_rng(2)
    fr = Frame.from_matrix(rng.standard_normal((6, 10)))
    back = canonical_dual(canonical_dual(fr))
    np.testing.assert_allclose(back.matrix, fr.matrix, atol=1e-8)


def test_canonical_dual_condition_cap():
    fr = Frame(np.diag([1.0, 1e-7]), lower_bound=1e-14, upper_bound=1.0)
    message = re.escape("Gram bounds (1.000e-14, 1.000e+00) spread beyond 1.000e+12")
    with pytest.raises(InvalidParametersError, match=f"^{message}$"):
        canonical_dual(fr)


def test_canonical_dual_refuses_a_zero_lower_bound():
    fr = Frame(np.diag([1.0, 0.0]), lower_bound=0.0, upper_bound=1.0)
    message = re.escape("Gram bounds (0.000e+00, 1.000e+00) spread beyond 1.000e+12")
    with pytest.raises(InvalidParametersError, match=f"^{message}$"):
        canonical_dual(fr)


def test_canonical_dual_refuses_a_nan_lower_bound():
    fr = Frame(np.eye(2), lower_bound=float("nan"), upper_bound=1.0)
    message = re.escape("Gram bounds (nan, 1.000e+00) spread beyond 1.000e+12")
    with pytest.raises(InvalidParametersError, match=f"^{message}$"):
        canonical_dual(fr)


def test_random_tight_frame_square_is_orthogonal():
    fr = random_tight_frame(2, 2, 5)
    np.testing.assert_allclose(fr.matrix @ fr.matrix.T, np.eye(2), atol=1e-12)


def test_random_tight_frame_deterministic():
    a = random_tight_frame(10, 14, 123).matrix
    b = random_tight_frame(10, 14, 123).matrix
    assert np.array_equal(a, b)


def test_random_tight_frame_rejects_n_gt_d():
    with pytest.raises(InvalidParametersError):
        random_tight_frame(5, 4, 0)


def test_mutual_coherence_identity_pair():
    assert mutual_coherence([np.eye(4), np.eye(4)]) == pytest.approx(1.0)


def test_mutual_coherence_hadamard():
    hadamard = pytest.importorskip("scipy.linalg").hadamard

    n = 16
    mu = mutual_coherence([np.eye(n), hadamard(n) / np.sqrt(n)])
    assert mu == pytest.approx(1.0 / np.sqrt(n))


def test_mutual_coherence_three_dicts_max_over_all_pairs():
    rng = np.random.default_rng(3)
    mats = [rng.standard_normal((4, 5)) for _ in range(3)]
    # brute force over all unordered pairs
    expected = max(
        np.max(np.abs(mats[i].T @ mats[j]))
        for i in range(3)
        for j in range(i + 1, 3)
    )
    assert mutual_coherence(mats) == pytest.approx(expected)


def test_mutual_coherence_symmetry_and_permutation():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 6))
    b = rng.standard_normal((4, 7))
    perm = rng.permutation(6)
    assert mutual_coherence([a, b]) == pytest.approx(mutual_coherence([b, a]))
    assert mutual_coherence([a[:, perm], b]) == pytest.approx(mutual_coherence([a, b]))


def test_mutual_coherence_rejects_mismatched_dimensions():
    with pytest.raises(InvalidParametersError):
        mutual_coherence([np.eye(3), np.eye(4)])


def test_mutual_coherence_rejects_1d_dictionaries():
    with pytest.raises(InvalidParametersError):
        mutual_coherence([np.ones(3), np.ones(3)])


def test_mutual_coherence_needs_two():
    with pytest.raises(InvalidParametersError):
        mutual_coherence([np.eye(3)])


def test_hard_threshold_example():
    approx = hard_threshold(np.array([3.0, -1.0, 2.0]), 2, q=1.0)
    assert list(approx.support) == [0, 2]
    np.testing.assert_allclose(approx.values, [3.0, 2.0])
    assert approx.residual_q_norm == pytest.approx(1.0)


def test_hard_threshold_keep_all():
    approx = hard_threshold(np.array([1.0, -2.0]), 2)
    assert approx.residual_q_norm == 0.0
    assert list(approx.support) == [0, 1]
    np.testing.assert_allclose(approx.values, [1.0, -2.0])


def test_hard_threshold_tie_breaks_to_lowest_index():
    approx = hard_threshold(np.array([1.0, 1.0, 1.0]), 1)
    assert list(approx.support) == [0]


@pytest.mark.parametrize("q", [0.0, -1.0, 1.5])
def test_hard_threshold_rejects_q_outside_unit_interval(q):
    with pytest.raises(InvalidParametersError, match="q must lie in"):
        hard_threshold(np.array([3.0, -1.0, 2.0]), 1, q=q)


def test_hard_threshold_refuses_an_array_that_is_not_a_vector():
    with pytest.raises(InvalidParametersError, match="vector"):
        hard_threshold(np.array([[3.0, -1.0, 2.0]]), 2)


def test_hard_threshold_refuses_a_non_finite_entry():
    with pytest.raises(InvalidParametersError, match="non-finite"):
        hard_threshold(np.array([3.0, np.nan, 2.0]), 2)


def test_hard_threshold_residual_monotone_in_s():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(12)
    q = 0.7
    residuals = [hard_threshold(x, s, q).residual_q_norm for s in range(13)]
    assert all(residuals[i + 1] <= residuals[i] + 1e-12 for i in range(12))


def test_cosparse_identity_dictionary():
    fr = Frame.from_matrix(np.eye(8))
    f, coeffs = cosparse_signal(fr, 3, 9)
    assert np.sum(np.abs(f) > 1e-10) == 3
    np.testing.assert_allclose(coeffs, f)


def test_cosparse_reference_dims_exact_sparsity():
    fr = random_tight_frame(100, 110, 0)
    f, coeffs = cosparse_signal(fr, 25, 1)
    assert np.linalg.norm(f) == pytest.approx(1.0)
    assert np.sum(np.abs(coeffs) > 1e-10) <= 25
    residual = hard_threshold(coeffs, 25, q=1.0)
    tail = coeffs.copy()
    tail[residual.support] = 0.0
    assert np.linalg.norm(tail) <= 1e-10


@pytest.mark.parametrize("s", [10**5000, 5, -1], ids=["past-4300-digits", "one-past-the-size", "negative"])
@pytest.mark.parametrize(
    "call",
    [lambda s: hard_threshold(np.arange(4.0), s), lambda s: cosparse_signal(random_tight_frame(4, 6, 0), s, 0)],
    ids=["hard_threshold", "cosparse_signal"],
)
def test_sparsity_outside_its_range_is_a_dimension_error(call, s):
    # 5 is one past both x.size and the frame's n = 4
    with pytest.raises(InvalidParametersError, match="^sparsity must lie in"):
        call(s)


def test_cosparse_deterministic():
    fr = random_tight_frame(12, 14, 3)
    f1, _ = cosparse_signal(fr, 5, 77)
    f2, _ = cosparse_signal(fr, 5, 77)
    assert np.array_equal(f1, f2)


def test_cosparse_infeasible_overcompleteness_raises():
    # a generic n x d tight frame admits no exact s-sparse analysis vector
    # unless s > d - n; (64, 80, 8) violates that
    fr = random_tight_frame(64, 80, 0)
    with pytest.raises(GenerationFailedError):
        cosparse_signal(fr, 8, 1)


def test_cosparse_failure_message_states_the_rule():
    fr = random_tight_frame(64, 80, 0)
    with pytest.raises(GenerationFailedError) as info:
        cosparse_signal(fr, 8, 1)
    message = str(info.value)
    for part in ("after 50 tries", "n=64", "d=80", "s=8", "s > d - n = 16"):
        assert part in message


def test_cosparse_duplicated_atoms_succeed_below_the_general_position_rule():
    # [I | I] / sqrt(2) is tight but not in general position: leaving out an
    # atom and its duplicate leaves a one-dimensional null space, so exactly
    # 2-sparse coefficients exist although s = 2 <= d - n = 4
    fr = Frame(matrix=np.hstack([np.eye(4), np.eye(4)]) / np.sqrt(2.0), lower_bound=1.0, upper_bound=1.0)
    f, coeffs = cosparse_signal(fr, 2, 5)
    assert np.linalg.norm(f) == pytest.approx(1.0)
    assert np.sum(np.abs(coeffs) > 1e-10) == 2


def _svd_projection_signal(frame, s, seed):
    """The projection through the full SVD of the cosupport rows, the reference for the least-squares projection:
    ``(f, cosupport, draws)``, drawing from one generator in the order cosparse_signal does."""
    d, n = frame.num_atoms, frame.ambient_dim
    rng = np.random.default_rng(seed)
    for draws in range(1, 51):
        cosupport = rng.choice(d, size=d - s, replace=False)
        _, sv, vt = np.linalg.svd(frame.matrix[:, cosupport].T)
        rank = int(np.sum(sv > sv.max() * 1e-12))
        if rank >= n:
            continue
        g = rng.standard_normal(n)
        f = vt[rank:].T @ (vt[rank:] @ g)
        if np.linalg.norm(f) > 1e-12:
            return f / np.linalg.norm(f), cosupport, draws
    raise AssertionError("the reference found no cosupport")


_SPIKES, _HADAMARD = _spikes_and_waves(32)
_DOUBLED = Frame(matrix=np.hstack([np.eye(4), np.eye(4)]) / np.sqrt(2.0), lower_bound=1.0, upper_bound=1.0)


@pytest.mark.parametrize("frame, s", [
    (random_tight_frame(100, 110, 0), 25),
    (_SPIKES, 2),
    (_HADAMARD, 2),
    (random_tight_frame(12, 16, 0), 6),
    (_DOUBLED, 2),  # d - s = 6 >= n = 4: a cosupport leaves a kernel only if it holds both copies of 3 atoms
], ids=["reference", "spikes", "hadamard", "desk", "doubled-identity"])
@pytest.mark.parametrize("seed", range(4))
def test_cosparse_signal_is_the_svd_projection_of_the_same_draws(frame, s, seed):
    f, coeffs = cosparse_signal(frame, s, seed)
    f_ref, cosupport, draws = _svd_projection_signal(frame, s, seed)
    assert np.max(np.abs(f - f_ref)) <= 1e-12
    assert np.max(np.abs(coeffs[cosupport])) <= 1e-13  # the same cosupport, annihilated
    if frame is _DOUBLED:
        assert draws > 1  # a retry redraws as before: the same seed gives the same signal


def test_frame_energy_sampling_within_bounds():
    rng = np.random.default_rng(8)
    fr = Frame.from_matrix(rng.standard_normal((10, 15)))
    samples = rng.standard_normal((10, 1000))
    samples /= np.linalg.norm(samples, axis=0)
    energy = np.sum((fr.matrix.T @ samples) ** 2, axis=0)
    assert energy.min() >= fr.lower_bound - 1e-9
    assert energy.max() <= fr.upper_bound + 1e-9


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    M = rng.standard_normal((3, 5))
    path = tmp_path / "m.csv"
    np.savetxt(path, M, delimiter=",", fmt="%.17g")
    np.testing.assert_array_equal(load_matrix(path), M)


def test_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(InvalidParametersError):
        load_matrix(path)


def test_csv_rejects_non_numeric(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,x\n")
    with pytest.raises(InvalidParametersError):
        load_matrix(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
def test_csv_rejects_non_finite(tmp_path, token):
    path = tmp_path / "bad.csv"
    path.write_text(f"1.0,2.0\n3.0,{token}\n")
    with pytest.raises(InvalidParametersError, match=r"bad\.csv:2: non-finite"):
        load_matrix(path)


@pytest.mark.parametrize(
    "text",
    ["1.0,2.0\r\n3.0,4.0\r\n", "1.0,2.0\n \t\n\n3.0,4.0\n", "1.0, 2.0\n3.0,4.0", "\n1.0,2.0\r\n\t\r\n3.0,4.0"],
    ids=["crlf", "whitespace-lines", "no-final-newline", "mixed"],
)
def test_load_matrix_skips_blank_lines_at_any_line_ending(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("ascii"))
    np.testing.assert_array_equal(load_matrix(path), [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize(
    "text",
    ["", "\n \t\r\n", "1_0,2\n", "1,0x1\n", "1,#2\n", "1,,2\n", "1,2\n3,4,5\n"],
    ids=["empty", "blank", "digit-group", "hex", "comment", "empty-token", "ragged"],
)
def test_load_matrix_refuses_a_file_that_is_no_matrix_in_one_line_naming_it(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode("ascii"))
    with pytest.raises(InvalidParametersError) as info:
        load_matrix(path)
    assert str(path) in str(info.value) and "\n" not in str(info.value)


@pytest.mark.parametrize(
    "text, shown",
    [("1.0,2.0\n\n3.0\n", "'3.0'"), ("1.0,2.0\n \t\n3.0,x\n", "'3.0,x'")],
    ids=["ragged", "bad-token"],
)
def test_load_matrix_names_the_file_line_of_a_refused_row(tmp_path, text, shown):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(InvalidParametersError, match=r"bad\.csv:3: expected a row of 2 numbers") as info:
        load_matrix(path)
    assert str(info.value).endswith(shown)


def test_load_matrix_names_the_file_line_of_a_non_finite_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n\n  \n3.0,1e400\n")
    with pytest.raises(InvalidParametersError, match=r"bad\.csv:4: non-finite"):
        load_matrix(path)


def test_load_matrix_reads_one_row_and_one_column_as_2d(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.5,2.5,3.5\n")
    assert load_matrix(path).shape == (1, 3)
    path.write_text("1.5\n2.5\n")
    assert load_matrix(path).shape == (2, 1)
