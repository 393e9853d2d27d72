import math

import numpy as np
import pytest

from lqframes import (
    Frame,
    GenerationFailedError,
    IllConditionedError,
    InvalidDimensionsError,
    InvalidParametersError,
    NotAFrameError,
    canonical_dual,
    cosparse_signal,
    frame_bounds,
    hard_threshold,
    load_matrix,
    mutual_coherence,
    random_tight_frame,
    save_matrix,
)


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
    with pytest.raises(NotAFrameError):
        frame_bounds(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_frame_bounds_rejects_tall_matrix():
    with pytest.raises(InvalidDimensionsError):
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
    with pytest.raises(IllConditionedError):
        canonical_dual(fr)


def test_canonical_dual_refuses_a_zero_lower_bound():
    fr = Frame(np.diag([1.0, 0.0]), lower_bound=0.0, upper_bound=1.0)
    with pytest.raises(IllConditionedError):
        canonical_dual(fr)


def test_canonical_dual_refuses_a_nan_lower_bound():
    fr = Frame(np.eye(2), lower_bound=float("nan"), upper_bound=1.0)
    with pytest.raises(IllConditionedError):
        canonical_dual(fr)


def test_random_tight_frame_square_is_orthogonal():
    fr = random_tight_frame(2, 2, 5)
    np.testing.assert_allclose(fr.matrix @ fr.matrix.T, np.eye(2), atol=1e-12)


def test_random_tight_frame_deterministic():
    a = random_tight_frame(10, 14, 123).matrix
    b = random_tight_frame(10, 14, 123).matrix
    assert np.array_equal(a, b)


def test_random_tight_frame_rejects_n_gt_d():
    with pytest.raises(InvalidDimensionsError):
        random_tight_frame(5, 4, 0)


def test_mutual_coherence_identity_pair():
    assert mutual_coherence([np.eye(4), np.eye(4)]) == pytest.approx(1.0)


def test_mutual_coherence_hadamard():
    from scipy.linalg import hadamard

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
    with pytest.raises(InvalidDimensionsError):
        mutual_coherence([np.eye(3), np.eye(4)])


def test_mutual_coherence_rejects_1d_dictionaries():
    with pytest.raises(InvalidDimensionsError):
        mutual_coherence([np.ones(3), np.ones(3)])


def test_mutual_coherence_needs_two():
    with pytest.raises(InvalidDimensionsError):
        mutual_coherence([np.eye(3)])


def test_hard_threshold_example():
    approx = hard_threshold(np.array([3.0, -1.0, 2.0]), 2, q=1.0)
    assert list(approx.support) == [0, 2]
    np.testing.assert_allclose(approx.values, [3.0, 2.0])
    assert approx.residual_q_norm == pytest.approx(1.0)


def test_hard_threshold_keep_all():
    approx = hard_threshold(np.array([1.0, -2.0]), 2)
    assert approx.residual_q_norm == 0.0
    np.testing.assert_allclose(approx.dense(2), [1.0, -2.0])


def test_hard_threshold_tie_breaks_to_lowest_index():
    approx = hard_threshold(np.array([1.0, 1.0, 1.0]), 1)
    assert list(approx.support) == [0]


@pytest.mark.parametrize("q", [0.0, -1.0, 1.5])
def test_hard_threshold_rejects_q_outside_unit_interval(q):
    with pytest.raises(InvalidParametersError, match="q must lie in"):
        hard_threshold(np.array([3.0, -1.0, 2.0]), 1, q=q)


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
    with pytest.raises(InvalidDimensionsError, match="^sparsity must lie in"):
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
    save_matrix(path, M)
    np.testing.assert_array_equal(load_matrix(path), M)


def test_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(InvalidDimensionsError):
        load_matrix(path)


def test_csv_rejects_non_numeric(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,x\n")
    with pytest.raises(InvalidDimensionsError):
        load_matrix(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
def test_csv_rejects_non_finite(tmp_path, token):
    path = tmp_path / "bad.csv"
    path.write_text(f"1.0,2.0\n3.0,{token}\n")
    with pytest.raises(InvalidDimensionsError, match=r"bad\.csv:2: non-finite"):
        load_matrix(path)


def test_save_matrix_writes_each_value_as_its_shortest_repr(tmp_path):
    values = [-0.0, 0.0, 5e-324, 1e16, 1.7976931348623157e308, math.nan, math.inf, -math.inf, 0.1, 1 / 3]
    M = np.array([values, values[::-1]])
    path = tmp_path / "m.csv"
    save_matrix(path, M)
    want = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in M)
    assert path.read_bytes() == want.encode("ascii")


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
    with pytest.raises(InvalidDimensionsError) as info:
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
    with pytest.raises(InvalidDimensionsError, match=r"bad\.csv:3: expected a row of 2 numbers") as info:
        load_matrix(path)
    assert str(info.value).endswith(shown)


def test_load_matrix_names_the_file_line_of_a_non_finite_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n\n  \n3.0,1e400\n")
    with pytest.raises(InvalidDimensionsError, match=r"bad\.csv:4: non-finite"):
        load_matrix(path)


def test_load_matrix_reads_one_row_and_one_column_as_2d(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.5,2.5,3.5\n")
    assert load_matrix(path).shape == (1, 3)
    path.write_text("1.5\n2.5\n")
    assert load_matrix(path).shape == (2, 1)
