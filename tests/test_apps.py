"""Application-weighted selection: the beta-weighted sum of application
output MSEs, each application a weight row over the sensors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldsense.gp import KernelParams

import oracle
from oracle import das_logs
from test_das import make_field, random_small_field, uploads_before
from test_gp import naive_posterior

UNIT = KernelParams(1.0, 1.0)


def mean_row(n):
    """The field-average application: every sensor weighted 1/L."""
    return np.full(n, 1.0 / n)


def picks(field, rounds, weights, betas):
    """The sensors a run of the app-weighted policy picks, in order."""
    return [l.selected for l in das_logs(field, "app-weighted", rounds, UNIT,
                                         apps=(weights, betas))]


def brute_force_weighted_pick(weights, betas, field, uploaded):
    """Re-derive the weighted-sum pick after the sensors in ``uploaded`` (in
    upload order) with the explicit-inverse solver."""
    rem = oracle.remaining(field, uploaded)
    best_idx, best_cost = None, None
    for cand in rem:
        obs = uploaded + [cand]
        rest = [i for i in rem if i != cand]
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


def assert_every_round_matches_brute_force(field, weights, betas):
    logs = das_logs(field, "app-weighted", field.n_sensors, UNIT, apps=(weights, betas))
    for log, uploaded in uploads_before(logs):
        assert log.selected == brute_force_weighted_pick(weights, betas, field, uploaded)


class TestSelectForApplication:
    """One application's picks: the app-weighted policy with that application alone."""

    def test_basis_weight_selects_its_sensor(self):
        rng = np.random.default_rng(3)
        field = make_field(rng.uniform(0, 4, 6), rng=rng)
        for l in range(6):
            w = np.zeros(6)
            w[l] = 1.0
            assert picks(field, 1, [w], [1.0]) == [l]

    def test_uniform_weights_match_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            field = random_small_field(rng, max_L=10)
            assert_every_round_matches_brute_force(field, [mean_row(field.n_sensors)], [1.0])

    def test_single_remaining(self):
        # the last round picks the one sensor left
        field = make_field([0.0, 1.0])
        assert sorted(picks(field, 2, [mean_row(2)], [1.0])) == [0, 1]

    def test_agrees_with_max_variance_when_sensors_distant(self):
        # Pairwise separations of >= 10 length scales zero out cross terms, so
        # minimizing the uniform-weight quadratic form reduces to removing the
        # largest variance.  Sensors sit near others to make the variances
        # genuinely unequal once those others upload.
        locs = [0.0, 0.4, 50.0, 50.9, 100.0, 150.0]
        field = make_field(locs, noise=0.01)
        got = picks(field, 6, [mean_row(6)], [1.0])
        assert got == [l.selected for l in das_logs(field, "max-variance", 6, UNIT)]
        assert got == [0, 2, 4, 5, 3, 1]


class TestSelectWeightedSum:
    def test_duplicate_apps_any_beta(self):
        rng = np.random.default_rng(6)
        field = random_small_field(rng, max_L=8)
        w = mean_row(field.n_sensors)
        n = field.n_sensors
        assert picks(field, n, [w, w], [0.3, 2.0]) == picks(field, n, [w], [1.0])

    def test_two_apps_match_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(12):
            field = random_small_field(rng, max_L=10)
            weights = [mean_row(field.n_sensors), rng.normal(size=field.n_sensors)]
            betas = [float(rng.uniform(0.1, 3)), float(rng.uniform(0.1, 3))]
            assert_every_round_matches_brute_force(field, weights, betas)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=20, deadline=None)
    def test_beta_scaling_invariance(self, scale):
        rng = np.random.default_rng(8)
        field = random_small_field(rng, max_L=8)
        n = field.n_sensors
        weights = [mean_row(n), np.linspace(0, 1, n)]
        betas = np.array([0.7, 1.3])
        assert picks(field, n, weights, betas * scale) == picks(field, n, weights, betas)

    def test_rejects_bad_betas(self):
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
                das_logs(field, "app-weighted", 1, UNIT, apps=(weights, betas))

    def test_rejects_non_finite_weights(self):
        field = make_field([0.0, 1.0, 2.0])
        weights = [mean_row(3), np.array([1.0, np.nan, 0.0])]
        with pytest.raises(ValueError, match="application 1 has non-finite weights"):
            das_logs(field, "app-weighted", 2, UNIT, apps=(weights, [1.0, 1.0]))
