"""Application-driven selection: outputs, error quadratic forms, candidate sets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldsense.apps import (
    LinearApplication,
    application_mse,
    application_output,
    build_candidate_set,
    estimate_covariance,
    select_max_value_app,
    select_weighted_sum,
    uniform_mean_application,
)
from fieldsense.das import DasState, estimate, select_max_variance
from fieldsense.gp import KernelParams, posterior_mean_and_variance

import oracle
from test_das import make_field, random_small_field, upload_some
from test_gp import naive_posterior

UNIT = KernelParams(1.0, 1.0)


def brute_force_weighted_pick(apps, betas, field, state):
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
            for app, beta in zip(apps, betas):
                w = app.weights[rest]
                cost += beta * float(w @ cov @ w)
        else:
            cost = 0.0
        if best_cost is None or cost < best_cost - 1e-13:
            best_idx, best_cost = cand, cost
    return best_idx


class TestApplicationOutput:
    def test_uniform_weights_give_sample_mean(self):
        field = make_field([0.0, 1.0, 2.0], values=[1.0, 2.0, 6.0])
        state = DasState.fresh(3)
        for i in range(3):
            state = state.with_uploads([i], [field.measurements[i]])
        est = estimate(field, state, UNIT)
        app = uniform_mean_application(3)
        assert application_output(app, est) == pytest.approx(3.0, rel=1e-12)

    def test_basis_vector_picks_entry(self):
        field = make_field([0.0, 1.0, 2.0], values=[1.0, 2.0, 6.0])
        est = estimate(field, DasState.fresh(3), UNIT)
        w = np.zeros(3)
        w[1] = 1.0
        assert application_output(LinearApplication(w), est) == est.values[1]

    def test_zero_weights(self):
        field = make_field([0.0, 1.0])
        est = estimate(field, DasState.fresh(2), UNIT)
        assert application_output(LinearApplication(np.zeros(2)), est) == 0.0

    def test_length_mismatch(self):
        field = make_field([0.0, 1.0])
        est = estimate(field, DasState.fresh(2), UNIT)
        with pytest.raises(ValueError):
            application_output(LinearApplication(np.ones(3)), est)


class TestEstimateCovariance:
    def test_uploaded_rows_exactly_zero_and_symmetric(self):
        rng = np.random.default_rng(1)
        field = make_field(rng.uniform(0, 4, 7), rng=rng)
        state = upload_some(field, DasState.fresh(7), rng, 3)
        cov = estimate_covariance(field, state, UNIT)
        for i in state.uploaded:
            assert np.all(cov[i, :] == 0.0) and np.all(cov[:, i] == 0.0)
        assert np.max(np.abs(cov - cov.T)) < 1e-10

    def test_all_uploaded_is_zero_matrix(self):
        field = make_field([0.0, 1.0])
        state = DasState.fresh(2).with_uploads([0], [0.0]).with_uploads([1], [0.0])
        np.testing.assert_array_equal(estimate_covariance(field, state, UNIT), np.zeros((2, 2)))


class TestApplicationMse:
    def test_zero_when_all_uploaded(self):
        app = uniform_mean_application(2)
        assert application_mse(app, np.zeros((2, 2))) == 0.0

    def test_basis_weight_reads_per_sensor_variance(self):
        rng = np.random.default_rng(2)
        field = make_field(rng.uniform(0, 4, 6), rng=rng)
        state = upload_some(field, DasState.fresh(6), rng, 2)
        cov = estimate_covariance(field, state, UNIT)
        for l in state.remaining:
            w = np.zeros(6)
            w[l] = 1.0
            _, (var,) = oracle.posterior_mean_and_variance(
                field.locations[list(state.uploaded)],
                np.asarray(state.uploaded_values),
                field.locations[l], UNIT, field.noise_variance,
            )
            assert application_mse(LinearApplication(w), cov) == pytest.approx(var, abs=1e-10)

    def test_two_sensor_hand_value(self):
        # uniform weights, nothing uploaded, unit kernel, sensors 1 apart:
        # (1/4) (2 + 2 e^{-1/2})
        field = make_field([0.0, 1.0])
        cov = estimate_covariance(field, DasState.fresh(2), UNIT)
        want = 0.25 * (2 + 2 * math.exp(-0.5))
        assert application_mse(uniform_mean_application(2), cov) == pytest.approx(want, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            application_mse(uniform_mean_application(3), np.zeros((2, 2)))


class TestSelectForApplication:
    """One application's pick: ``select_weighted_sum`` with that application alone."""

    def test_basis_weight_selects_its_sensor(self):
        rng = np.random.default_rng(3)
        field = make_field(rng.uniform(0, 4, 6), rng=rng)
        state = upload_some(field, DasState.fresh(6), rng, 2)
        for l in state.remaining:
            w = np.zeros(6)
            w[l] = 1.0
            assert select_weighted_sum([LinearApplication(w)], [1.0], field, state, UNIT) == l

    def test_uniform_weights_match_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            field = random_small_field(rng, max_L=10)
            state = upload_some(field, DasState.fresh(field.n_sensors), rng,
                                int(rng.integers(0, field.n_sensors - 1)))
            app = uniform_mean_application(field.n_sensors)
            want = brute_force_weighted_pick([app], [1.0], field, state)
            assert select_weighted_sum([app], [1.0], field, state, UNIT) == want

    def test_single_remaining(self):
        field = make_field([0.0, 1.0])
        state = DasState.fresh(2).with_uploads([0], [0.0])
        app = uniform_mean_application(2)
        assert select_weighted_sum([app], [1.0], field, state, UNIT) == 1

    def test_agrees_with_max_variance_when_sensors_distant(self):
        # Pairwise separations of >= 10 length scales zero out cross terms, so
        # minimizing the uniform-weight quadratic form reduces to removing the
        # largest variance.  Uploads sit near some remaining sensors to make
        # the variances genuinely unequal.
        locs = [0.0, 0.4, 50.0, 50.9, 100.0, 150.0]
        field = make_field(locs, noise=0.01)
        state = DasState.fresh(6).with_uploads([0], [field.measurements[0]])
        state = state.with_uploads([2], [field.measurements[2]])
        app = uniform_mean_application(6)
        assert select_weighted_sum([app], [1.0], field, state, UNIT) == \
            select_max_variance(field, state, UNIT)


class TestSelectWeightedSum:
    def test_duplicate_apps_any_beta(self):
        rng = np.random.default_rng(6)
        field = random_small_field(rng, max_L=8)
        state = upload_some(field, DasState.fresh(field.n_sensors), rng, 1)
        app = uniform_mean_application(field.n_sensors)
        single = select_weighted_sum([app], [1.0], field, state, UNIT)
        assert select_weighted_sum([app, app], [0.3, 2.0], field, state, UNIT) == single

    def test_two_apps_match_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(12):
            field = random_small_field(rng, max_L=10)
            state = upload_some(field, DasState.fresh(field.n_sensors), rng,
                                int(rng.integers(0, field.n_sensors - 1)))
            w2 = rng.normal(size=field.n_sensors)
            apps = [uniform_mean_application(field.n_sensors), LinearApplication(w2)]
            betas = [float(rng.uniform(0.1, 3)), float(rng.uniform(0.1, 3))]
            want = brute_force_weighted_pick(apps, betas, field, state)
            assert select_weighted_sum(apps, betas, field, state, UNIT) == want

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=20, deadline=None)
    def test_beta_scaling_invariance(self, scale):
        rng = np.random.default_rng(8)
        field = random_small_field(rng, max_L=8)
        state = upload_some(field, DasState.fresh(field.n_sensors), rng, 1)
        apps = [uniform_mean_application(field.n_sensors),
                LinearApplication(np.linspace(0, 1, field.n_sensors))]
        betas = np.array([0.7, 1.3])
        base = select_weighted_sum(apps, betas, field, state, UNIT)
        assert select_weighted_sum(apps, betas * scale, field, state, UNIT) == base

    def test_rejects_bad_betas(self):
        field = make_field([0.0, 1.0])
        state = DasState.fresh(2)
        app = uniform_mean_application(2)
        with pytest.raises(ValueError):
            select_weighted_sum([app], [1.0, 2.0], field, state, UNIT)
        with pytest.raises(ValueError):
            select_weighted_sum([app], [-1.0], field, state, UNIT)


class TestSelectMaxValueApp:
    def test_max_already_uploaded(self):
        field = make_field([0.0, 5.0, 10.0], values=[9.0, 1.0, 2.0], noise=0.01)
        state = DasState.fresh(3).with_uploads([0], [9.0])
        est = estimate(field, state, UNIT)
        assert select_max_value_app(field, state, est) is None

    def test_max_is_predicted(self):
        # two equal high uploads bracket sensor 1; the GP mean between them
        # overshoots 5.0, so the field maximum is a predicted entry
        field = make_field([0.0, 0.2, 0.4, 10.0], values=[5.0, 5.0, 5.0, 0.0], noise=0.01)
        state = DasState.fresh(4).with_uploads([0], [5.0]).with_uploads([2], [5.0])
        est = estimate(field, state, UNIT)
        assert int(np.argmax(est.values)) == 1
        assert select_max_value_app(field, state, est) == 1

    def test_all_uploaded(self):
        field = make_field([0.0, 1.0], values=[1.0, 2.0])
        state = DasState.fresh(2).with_uploads([0], [1.0]).with_uploads([1], [2.0])
        est = estimate(field, state, UNIT)
        assert select_max_value_app(field, state, est) is None


class TestBuildCandidateSet:
    def test_three_distinct_picks(self):
        rng = np.random.default_rng(9)
        field = make_field(rng.uniform(0, 5, 6), rng=rng)
        state = DasState.fresh(6)
        assert build_candidate_set([1, 3, 5], field, state, UNIT, 3) == [1, 3, 5]

    def test_duplicate_picks_fill_with_max_variance(self):
        field = make_field([0.0, 0.1, 5.0])
        state = DasState.fresh(3).with_uploads([0], [field.measurements[0]])
        got = build_candidate_set([2, 2], field, state, UNIT, 2)
        assert got[0] == 2
        assert got == [2, 1]  # only sensor 1 is left to fill with

    def test_fill_order_follows_variance_ranking(self):
        field = make_field([0.0, 0.1, 5.0, 9.0])
        state = DasState.fresh(4).with_uploads([0], [field.measurements[0]])
        got = build_candidate_set([], field, state, UNIT, 2)
        _, (v1, v2) = posterior_mean_and_variance([0.0], [0.0], [0.1, 5.0], UNIT,
                                                  field.noise_variance)
        assert v2 > v1
        assert got == [2, 3] or got == [3, 2]
        assert got[0] == select_max_variance(field, state, UNIT)

    def test_clamps_to_remaining(self):
        field = make_field([0.0, 1.0, 2.0])
        state = DasState.fresh(3).with_uploads([1], [field.measurements[1]])
        got = build_candidate_set([0], field, state, UNIT, 10)
        assert sorted(got) == [0, 2]

    def test_none_entries_skipped(self):
        field = make_field([0.0, 1.0, 2.0])
        state = DasState.fresh(3)
        got = build_candidate_set([None, 1, None], field, state, UNIT, 2)
        assert got[0] == 1 and len(got) == 2

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_always_duplicate_free_subset(self, seed, Q):
        rng = np.random.default_rng(seed)
        field = random_small_field(rng, max_L=9)
        state = upload_some(field, DasState.fresh(field.n_sensors), rng,
                            int(rng.integers(0, field.n_sensors)))
        if not state.remaining:
            return
        picks = [int(rng.choice(state.remaining)) for _ in range(int(rng.integers(0, 3)))]
        got = build_candidate_set(picks, field, state, UNIT, Q)
        assert len(got) == len(set(got)) == min(Q, len(state.remaining))
        assert set(got) <= set(state.remaining)

    def test_rejects_pick_outside_remaining(self):
        field = make_field([0.0, 1.0])
        state = DasState.fresh(2).with_uploads([0], [0.0])
        with pytest.raises(ValueError):
            build_candidate_set([0], field, state, UNIT, 1)
