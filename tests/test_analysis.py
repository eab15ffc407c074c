import pytest

from tcrlab.analysis import (
    AnalysisParams,
    tokens_disengaged,
    tokens_informed_engaged,
    tokens_uninformed_engaged,
    total_tokens,
    value_per_token,
)
from tcrlab.params import ConfigurationError

BASE = AnalysisParams(t0=100.0, sigma=0.05, delta=0.02, n_ie=30, n_ue=20, n_id=30, n_ud=20)


def informed_engaged_by_recursion(p: AnalysisParams, k: int) -> float:
    """Independent oracle: unroll the one-step recursion directly."""
    t_ie = p.t0
    t_ue = p.t0
    for _ in range(k):
        t_ie = (t_ie + t_ue * p.sigma * p.n_ue / p.n_ie) * (1.0 + p.delta)
        t_ue = t_ue * (1.0 - p.sigma) * (1.0 + p.delta)
    return t_ie


class TestParamsValidation:
    def test_requires_informed_majority(self):
        with pytest.raises(ConfigurationError):
            AnalysisParams(t0=100, sigma=0.05, delta=0.02, n_ie=20, n_ue=30, n_id=0, n_ud=0)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ConfigurationError):
            AnalysisParams(t0=100, sigma=1.0, delta=0.02, n_ie=2, n_ue=1, n_id=0, n_ud=0)

    @pytest.mark.parametrize("field", ["t0", "sigma", "delta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, field, value):
        kwargs = dict(t0=100.0, sigma=0.05, delta=0.02, n_ie=2, n_ue=1, n_id=0, n_ud=0)
        with pytest.raises(ConfigurationError):
            AnalysisParams(**{**kwargs, field: value})


class TestDisengaged:
    @pytest.mark.parametrize("t0,k", [(100.0, 0), (100.0, 50), (7.5, 3)])
    def test_constant(self, t0, k):
        p = AnalysisParams(t0=t0, sigma=0.05, delta=0.02, n_ie=3, n_ue=2, n_id=1, n_ud=1)
        assert tokens_disengaged(p, k) == t0


class TestUninformedEngaged:
    def test_one_round(self):
        assert tokens_uninformed_engaged(BASE, 1) == pytest.approx(96.9)

    def test_start(self):
        assert tokens_uninformed_engaged(BASE, 0) == 100.0

    def test_constancy_boundary(self):
        # (1 + delta) == 1 / (1 - sigma) keeps the balance exactly at t0
        sigma = 0.05
        delta = 1.0 / (1.0 - sigma) - 1.0
        p = AnalysisParams(t0=100.0, sigma=sigma, delta=delta, n_ie=3, n_ue=2, n_id=0, n_ud=0)
        for k in (1, 10, 100):
            assert tokens_uninformed_engaged(p, k) == pytest.approx(100.0, rel=1e-12)


class TestInformedEngaged:
    def test_one_round(self):
        # 102 * (1 + 0.05 * 20/30)
        assert tokens_informed_engaged(BASE, 1) == pytest.approx(105.4)

    def test_start(self):
        assert tokens_informed_engaged(BASE, 0) == 100.0

    @pytest.mark.parametrize("k", [1, 2, 5, 10, 50, 200, 500, 1000])
    def test_closed_form_matches_recursion(self, k):
        assert tokens_informed_engaged(BASE, k) == pytest.approx(
            informed_engaged_by_recursion(BASE, k), rel=1e-12
        )

    def test_large_k_approaches_approximation(self):
        k = 200
        approx = BASE.t0 * (1.0 + BASE.delta) ** k * (1.0 + BASE.n_ue / BASE.n_ie)
        exact = tokens_informed_engaged(BASE, k)
        assert abs(exact - approx) / approx <= 1e-3

    @pytest.mark.parametrize("k", [1, 5, 20, 100, 400])
    def test_approximation_error_bound(self, k):
        approx = BASE.t0 * (1.0 + BASE.delta) ** k * (1.0 + BASE.n_ue / BASE.n_ie)
        exact = tokens_informed_engaged(BASE, k)
        bound = (
            BASE.t0 * (1.0 + BASE.delta) ** k
            * (BASE.n_ue / BASE.n_ie) * (1.0 - BASE.sigma) ** k
        )
        assert abs(approx - exact) <= bound * (1.0 + 1e-12)


class TestTotalTokens:
    def test_start(self):
        assert total_tokens(BASE, 0) == pytest.approx(100.0 * 100)

    def test_no_inflation_conserves_total(self):
        p = AnalysisParams(t0=100.0, sigma=0.05, delta=0.0, n_ie=30, n_ue=20, n_id=30, n_ud=20)
        for k in (1, 10, 50):
            assert total_tokens(p, k) == pytest.approx(total_tokens(p, 0), rel=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 10, 100])
    def test_partition_identity(self, k):
        weighted = (
            BASE.n_ie * tokens_informed_engaged(BASE, k)
            + BASE.n_ue * tokens_uninformed_engaged(BASE, k)
            + (BASE.n_id + BASE.n_ud) * tokens_disengaged(BASE, k)
        )
        assert total_tokens(BASE, k) == pytest.approx(weighted, rel=1e-12)


class TestValuePerToken:
    def test_start_is_zero(self):
        assert value_per_token(BASE, 0) == 0.0

    def test_linear_growth_without_inflation(self):
        p = AnalysisParams(t0=100.0, sigma=0.05, delta=0.0, n_ie=30, n_ue=20, n_id=30, n_ud=20)
        v10 = value_per_token(p, 10)
        v20 = value_per_token(p, 20)
        assert v20 == pytest.approx(2 * v10, rel=1e-9)

    def test_inflation_eventually_dominates(self):
        assert value_per_token(BASE, 400) < value_per_token(BASE, 200)

    def test_informed_engaged_wealth_grows_linearly(self):
        # value per token times IE tokens should double when k doubles
        for k in (200, 400, 800):
            w_k = value_per_token(BASE, k) * tokens_informed_engaged(BASE, k)
            w_2k = value_per_token(BASE, 2 * k) * tokens_informed_engaged(BASE, 2 * k)
            assert w_2k / w_k == pytest.approx(2.0, rel=0.05)
