"""Application-weighted selection: the beta-weighted sum of application
output MSEs, each application a weight row over the sensors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldsense.das import DasState, run_das, select_max_variance, select_weighted_sum
from fieldsense.gp import KernelParams

from test_das import make_field, random_small_field, upload_some
from test_gp import naive_posterior

UNIT = KernelParams(1.0, 1.0)


def mean_row(n):
    """The field-average application: every sensor weighted 1/L."""
    return np.full(n, 1.0 / n)


def brute_force_weighted_pick(weights, betas, field, state):
    """Re-derive the weighted-sum pick with the explicit-inverse solver."""
    best_idx, best_cost = None, None
    for cand in state.remaining:
        obs = list(state.uploaded) + [cand]
        rest = [i for i in state.remaining if i != cand]
        if rest:
            _, cov = naive_posterior(
                field.locations[obs], np.zeros(len(obs)),
                field.locations[rest], UNIT, field.noise_variance,
            )
            cost = 0.0
            for row, beta in zip(weights, betas):
                w = row[rest]
                cost += beta * float(w @ cov @ w)
        else:
            cost = 0.0
        if best_cost is None or cost < best_cost - 1e-13:
            best_idx, best_cost = cand, cost
    return best_idx


class TestSelectForApplication:
    """One application's pick: ``select_weighted_sum`` with that application alone."""

    def test_basis_weight_selects_its_sensor(self):
        rng = np.random.default_rng(3)
        field = make_field(rng.uniform(0, 4, 6), rng=rng)
        state = upload_some(field, DasState.fresh(6), rng, 2)
        for l in state.remaining:
            w = np.zeros(6)
            w[l] = 1.0
            assert select_weighted_sum([w], [1.0], field, state, UNIT) == l

    def test_uniform_weights_match_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            field = random_small_field(rng, max_L=10)
            state = upload_some(field, DasState.fresh(field.n_sensors), rng,
                                int(rng.integers(0, field.n_sensors - 1)))
            w = mean_row(field.n_sensors)
            want = brute_force_weighted_pick([w], [1.0], field, state)
            assert select_weighted_sum([w], [1.0], field, state, UNIT) == want

    def test_single_remaining(self):
        field = make_field([0.0, 1.0])
        state = DasState.fresh(2).with_uploads([0], [0.0])
        assert select_weighted_sum([mean_row(2)], [1.0], field, state, UNIT) == 1

    def test_agrees_with_max_variance_when_sensors_distant(self):
        # Pairwise separations of >= 10 length scales zero out cross terms, so
        # minimizing the uniform-weight quadratic form reduces to removing the
        # largest variance.  Uploads sit near some remaining sensors to make
        # the variances genuinely unequal.
        locs = [0.0, 0.4, 50.0, 50.9, 100.0, 150.0]
        field = make_field(locs, noise=0.01)
        state = DasState.fresh(6).with_uploads([0], [field.measurements[0]])
        state = state.with_uploads([2], [field.measurements[2]])
        assert select_weighted_sum([mean_row(6)], [1.0], field, state, UNIT) == \
            select_max_variance(field, state, UNIT)


class TestSelectWeightedSum:
    def test_duplicate_apps_any_beta(self):
        rng = np.random.default_rng(6)
        field = random_small_field(rng, max_L=8)
        state = upload_some(field, DasState.fresh(field.n_sensors), rng, 1)
        w = mean_row(field.n_sensors)
        single = select_weighted_sum([w], [1.0], field, state, UNIT)
        assert select_weighted_sum([w, w], [0.3, 2.0], field, state, UNIT) == single

    def test_two_apps_match_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(12):
            field = random_small_field(rng, max_L=10)
            state = upload_some(field, DasState.fresh(field.n_sensors), rng,
                                int(rng.integers(0, field.n_sensors - 1)))
            weights = [mean_row(field.n_sensors), rng.normal(size=field.n_sensors)]
            betas = [float(rng.uniform(0.1, 3)), float(rng.uniform(0.1, 3))]
            want = brute_force_weighted_pick(weights, betas, field, state)
            assert select_weighted_sum(weights, betas, field, state, UNIT) == want

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=20, deadline=None)
    def test_beta_scaling_invariance(self, scale):
        rng = np.random.default_rng(8)
        field = random_small_field(rng, max_L=8)
        state = upload_some(field, DasState.fresh(field.n_sensors), rng, 1)
        weights = [mean_row(field.n_sensors), np.linspace(0, 1, field.n_sensors)]
        betas = np.array([0.7, 1.3])
        base = select_weighted_sum(weights, betas, field, state, UNIT)
        assert select_weighted_sum(weights, betas * scale, field, state, UNIT) == base

    def test_rejects_bad_betas(self):
        # select_weighted_sum and run_das's app-weighted policy check alike
        field = make_field([0.0, 1.0])
        for weights, betas, match in (
            ([mean_row(2)], [1.0, 2.0], "1 applications but 2 betas"),
            ([mean_row(2)], [-1.0], "finite and positive"),
            ([mean_row(2)], [0.0], "finite and positive"),
            ([mean_row(2)], [np.nan], "finite and positive"),
            ([mean_row(2), mean_row(2)], [np.inf, 1.0], "finite and positive"),
            ([np.ones(3)], [1.0], "application 0 has 3 weights for 2 sensors"),
            ([mean_row(2), np.ones(1)], [1.0, 1.0], "application 1 has 1 weights for 2 sensors"),
        ):
            with pytest.raises(ValueError, match=match):
                select_weighted_sum(weights, betas, field, DasState.fresh(2), UNIT)
            with pytest.raises(ValueError, match=match):
                run_das(field, "app-weighted", 1, UNIT, apps=(weights, betas))

    def test_rejects_non_finite_weights(self):
        field = make_field([0.0, 1.0, 2.0])
        weights = [mean_row(3), np.array([1.0, np.nan, 0.0])]
        with pytest.raises(ValueError, match="application 1 has non-finite weights"):
            select_weighted_sum(weights, [1.0, 1.0], field, DasState.fresh(3), UNIT)
        with pytest.raises(ValueError, match="application 1 has non-finite weights"):
            run_das(field, "app-weighted", 2, UNIT, apps=(weights, [1.0, 1.0]))
