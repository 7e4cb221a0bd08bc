import math

import numpy as np
import pytest
from scipy.optimize import linprog

import fairvote as fv
from fairvote import metrics, mwu


def lp_game_value(matrix: np.ndarray) -> float:
    """Independent oracle: exact value of the row-maximizer zero-sum game."""
    rows, cols = matrix.shape
    # min v s.t. M^T p <= v, sum p = 1 over row mixes p -- dualize instead:
    # value = max_p min_j (p M)_j; standard LP in (p, v)
    c = np.zeros(rows + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-matrix.T, np.ones((cols, 1))])
    b_ub = np.zeros(cols)
    A_eq = np.hstack([np.ones((1, rows)), np.zeros((1, 1))])
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0],
                  bounds=[(0, 1)] * rows + [(None, None)], method="highs")
    assert res.success
    return -res.fun


def solve(matrix: np.ndarray, epsilon: float, stop_check=None):
    """mwu_solve against the best pure column of a nonnegative matrix; returns
    the result, the averaged column strategy and the mixes the oracle saw."""
    counts = np.zeros(matrix.shape[1])
    mixes = []

    def best_response(mix):
        mixes.append(mix.copy())
        col = int(np.argmin(mix @ matrix))
        counts[col] += 1
        return matrix[:, col]

    result = fv.mwu_solve(matrix.shape[0], float(matrix.max()), best_response, epsilon,
                          stop_check=stop_check)
    return result, counts / result.rounds, mixes


class TestMwuSolve:
    def test_matching_pennies(self):
        m = np.array([[1.0, 0.0], [0.0, 1.0]])
        _, y, _ = solve(m, epsilon=0.01)
        assert (m @ y).max() == pytest.approx(0.5, abs=0.01)

    def test_single_row_game_exact(self):
        m = np.array([[0.3, 0.7, 0.2]])
        result, y, _ = solve(m, epsilon=0.5)
        assert result.rounds == 1
        assert (m @ y).max() == 0.2
        assert result.row_mix.tolist() == [1.0]

    def test_rock_paper_scissors(self):
        m = np.array([[0.5, 0.0, 1.0], [1.0, 0.5, 0.0], [0.0, 1.0, 0.5]])
        assert lp_game_value(m) == pytest.approx(0.5, abs=1e-9)
        result, y, _ = solve(m, epsilon=0.01)
        assert (m @ y).max() == pytest.approx(0.5, abs=0.01)
        assert result.row_mix == pytest.approx(np.ones(3) / 3, abs=0.02)

    def test_regret_certificate_random_games(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            rows, cols = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            m = rng.uniform(size=(rows, cols))
            eps = 0.05
            result, y, _ = solve(m, epsilon=eps)
            # exhaustive row scan: the averaged pure-column response concedes
            # at most value + eps against every row
            assert (m @ y).max() <= lp_game_value(m) + eps + 1e-9
            eps_norm = eps / m.max()
            assert result.rounds == math.ceil(4 * math.log(rows) / eps_norm**2)

    def test_reproducible_traces(self):
        m = np.array([[0.2, 0.9], [0.8, 0.1]])
        r1, y1, mixes1 = solve(m, epsilon=0.02)
        r2, y2, mixes2 = solve(m, epsilon=0.02)
        assert r1.rounds == r2.rounds
        assert np.array_equal(r1.row_mix, r2.row_mix)
        assert np.array_equal(y1, y2)
        assert np.array_equal(np.array(mixes1), np.array(mixes2))

    def test_payoff_range_validation(self):
        bad = {
            "shape": np.array([0.5, 0.5, 0.5]),
            "nan": np.array([np.nan, 0.5]),
            "+inf": np.array([np.inf, 0.5]),
            "-inf": np.array([-np.inf, 0.5]),
            "above bound": np.array([1.0 + 1e-6, 0.5]),
            "below zero": np.array([-1e-8, 0.5]),
        }
        for payoffs in bad.values():
            with pytest.raises(ValueError):
                fv.mwu_solve(2, 1.0, lambda mix, p=payoffs: p, epsilon=0.1)
        # the tolerances at both ends of the range are accepted
        fv.mwu_solve(2, 1.0, lambda mix: np.array([-1e-10, 1.0 + 1e-10]), epsilon=0.5)

    def test_rejects_bad_game(self):
        def best_response(mix):
            return np.zeros_like(mix)

        for rows, bound, eps in ((0, 1.0, 0.1), (2, 0.0, 0.1), (2, math.inf, 0.1),
                                 (2, 1.0, 0.0)):
            with pytest.raises(ValueError):
                fv.mwu_solve(rows, bound, best_response, eps)

    def test_early_stop_hook(self):
        m = np.array([[1.0, 0.0], [0.0, 1.0]])
        theory_rounds = math.ceil(4 * math.log(2) / 0.03**2)  # 3,081
        played = []     # payoff vectors, one per round
        asked = []      # (rounds played, avg_payoffs) at each check

        def best_response(mix):
            played.append(m[:, int(np.argmin(mix @ m))])
            return played[-1]

        def never(avg):
            asked.append((len(played), avg.copy()))
            return False

        result = fv.mwu_solve(2, 1.0, best_response, 0.03, stop_check=never)
        assert [t for t, _ in asked] == [1000, 2000, 3000, theory_rounds]
        assert mwu.CHECK_EVERY == 1000 and result.rounds == theory_rounds
        # each check sees the average payoff of the rounds so far
        for t, avg in asked:
            assert avg == pytest.approx(np.mean(played[:t], axis=0))

        # a true answer at the first check ends the run there
        result = fv.mwu_solve(2, 1.0, best_response, 0.03, stop_check=lambda avg: True)
        assert result.rounds == 1000


def test_coalition_game_value_bounds_lp_value_from_above():
    # _coalition_game_value(M) bounds max_y min_i (M y) from above, so
    # core_check may skip a coalition on it; a one-row M meets the bound
    rng = np.random.default_rng(14)
    for trial in range(20):
        rows, cols = (1 if trial < 5 else int(rng.integers(2, 5))), int(rng.integers(2, 6))
        M = rng.uniform(-1.0, 1.0, size=(rows, cols))
        value = lp_game_value(M.T)
        assert metrics._coalition_game_value(M) >= value - 1e-12
        if rows == 1:
            assert metrics._coalition_game_value(M) == pytest.approx(value, abs=1e-9)
