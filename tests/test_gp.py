"""GP core: kernel values, posterior against a naive oracle, conditioning laws."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, cholesky

import fieldsense.gp
from fieldsense.das import DasState, run_das
from fieldsense.fields import SensorField, gen_2d
from fieldsense.gp import (
    VARIANCE_CLAMP,
    IncrementalConditioner,
    KernelParams,
    _sq_exp,
    gram,
    kernel,
    pointwise_conditional,
    posterior,
    posterior_mean_and_variance,
)

import oracle

UNIT = KernelParams(1.0, 1.0)


def naive_kernel(a, b, params):
    d2 = sum((x - y) ** 2 for x, y in zip(a, b))
    return params.signal_variance * math.exp(-d2 / (2 * params.length_scale**2))


def naive_posterior(obs, values, targets, params, noise):
    """Textbook conditioning via an explicit matrix inverse and scalar loops."""
    n, m = len(obs), len(targets)
    k00 = np.array([[naive_kernel(a, b, params) for b in obs] for a in obs])
    k01 = np.array([[naive_kernel(a, b, params) for b in targets] for a in obs])
    k11 = np.array([[naive_kernel(a, b, params) for b in targets] for a in targets])
    if n == 0:
        return np.zeros(m), k11
    inv = np.linalg.inv(k00 + noise * np.eye(n))
    mean = k01.T @ inv @ np.asarray(values, dtype=float)
    cov = k11 - k01.T @ inv @ k01
    return mean, cov


def random_instance(rng, max_obs=12, max_targets=12):
    d = int(rng.integers(1, 3))
    n = int(rng.integers(0, max_obs + 1))
    m = int(rng.integers(1, max_targets + 1))
    obs = rng.uniform(-5, 5, size=(n, d))
    targets = rng.uniform(-5, 5, size=(m, d))
    values = rng.normal(size=n)
    noise = float(rng.uniform(1e-3, 1.0))
    return obs, values, targets, noise


class TestKernel:
    def test_zero_distance_gives_signal_variance(self):
        assert kernel([0.3], [0.3], UNIT) == 1.0
        assert kernel([0.3], [0.3], KernelParams(2.0, 3.5)) == 3.5

    def test_unit_separation(self):
        assert kernel([0.0], [1.0], UNIT) == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_2d_three_four_five(self):
        assert kernel([0.0, 0.0], [3.0, 4.0], UNIT) == pytest.approx(
            math.exp(-12.5), rel=1e-12
        )

    def test_rejects_points_without_coordinates(self):
        with pytest.raises(ValueError):
            kernel([], [], UNIT)
        with pytest.raises(ValueError):
            gram(np.zeros((2, 0)), np.zeros((3, 0)), UNIT)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel([0.0], [1.0, 2.0], UNIT)

    @given(st.integers(0, 2**32 - 1))
    def test_symmetry_exact(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(-10, 10, size=(2, 2))
        assert kernel(a, b, UNIT) == kernel(b, a, UNIT)

    def test_range(self):
        params = KernelParams(0.7, 2.0)
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = rng.uniform(-3, 3, size=(2, 1))
            v = kernel(a, b, params)
            assert 0 < v <= params.signal_variance


class TestGram:
    def test_single_point(self):
        np.testing.assert_array_equal(gram([[0.0]], [[0.0]], UNIT), [[1.0]])

    def test_two_point_matrix(self):
        e = math.exp(-0.5)
        got = gram([0.0, 1.0], [0.0, 1.0], UNIT)
        np.testing.assert_allclose(got, [[1.0, e], [e, 1.0]], atol=1e-15)

    def test_rectangular(self):
        got = gram([0.0], [0.0, 2.0], UNIT)
        np.testing.assert_allclose(got, [[1.0, math.exp(-2.0)]], atol=1e-15)

    def test_empty_rows(self):
        assert gram([], [0.0, 1.0], UNIT).shape == (0, 2)
        assert gram([0.0], [], UNIT).shape == (1, 0)

    def test_square_is_symmetric_psd(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 10, size=(20, 2))
        k = gram(pts, pts, UNIT)
        assert np.max(np.abs(k - k.T)) == 0.0
        eigs = np.linalg.eigvalsh(k)
        assert eigs.min() > -1e-10


class TestPosterior:
    def test_no_observations_is_prior(self):
        post = posterior([], [], [[0.0]], UNIT, 0.01)
        np.testing.assert_array_equal(post.mean, [0.0])
        np.testing.assert_array_equal(post.covariance, [[1.0]])

    def test_scalar_case(self):
        y = 0.37
        post = posterior([0.0], [y], [0.0], UNIT, 0.01)
        assert post.mean[0] == pytest.approx(y / 1.01, rel=1e-12)
        assert post.covariance[0, 0] == pytest.approx(1 - 1 / 1.01, rel=1e-10)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            obs, values, targets, noise = random_instance(rng)
            want_mean, want_cov = naive_posterior(obs, values, targets, UNIT, noise)
            post = posterior(obs, values, targets, UNIT, noise)
            np.testing.assert_allclose(post.mean, want_mean, atol=1e-8)
            np.testing.assert_allclose(post.covariance, want_cov, atol=1e-8)

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError):
            posterior([0.0], [1.0], [], UNIT, 0.1)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            posterior([np.nan], [1.0], [0.0], UNIT, 0.1)
        with pytest.raises(ValueError):
            posterior([0.0], [np.inf], [0.0], UNIT, 0.1)

    def test_bad_noise_rejected(self):
        for noise in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                posterior([0.0], [1.0], [1.0], UNIT, noise)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            posterior([0.0, 1.0], [1.0], [0.5], UNIT, 0.1)

    def test_duplicate_locations_survive_via_noise(self):
        # Observations at the same spot make K singular; the sigma^2 ridge
        # (plus pivot jitter if round-off needs it) must keep the solve alive.
        post = posterior([0.5, 0.5, 0.5], [1.0, 1.1, 0.9], [0.5, 2.0], UNIT, 1e-3)
        assert np.all(np.isfinite(post.mean))
        assert np.all(np.isfinite(post.covariance))

    def test_jitter_rescues_a_singular_factor(self):
        # Two coincident sensors and a third 1e-9 away, with noise far below
        # round-off: K + noise I is not numerically positive definite, so a
        # plain batch factor fails; the one-row-at-a-time factor must still
        # give finite means and non-negative variances.
        locs = [0.0, 0.0, 1e-9, 0.5, 0.5]
        values = [0.3, -0.1, 0.2, 1.0, 0.9]
        noise = 1e-16
        with pytest.raises(LinAlgError):
            cholesky(gram(locs, locs, UNIT) + noise * np.eye(5), lower=True)
        post = posterior(locs, values, locs, UNIT, noise)
        mean, var = posterior_mean_and_variance(locs, values, locs, UNIT, noise)
        for m, v in ((post.mean, post.variance), (mean, var)):
            assert np.all(np.isfinite(m)) and np.all(np.isfinite(v))
            assert np.all(v >= 0.0)

    def test_singular_factor_variances_agree_with_oracle(self):
        # The case above: the batch oracle needs diagonal jitter and leaves
        # variances of about 3e-11; the library must agree to 1e-10.  (The
        # means are not compared: with noise 1e-16 the coincident values
        # 0.3 and -0.1 pin the latent value only up to round-off.)
        locs = [0.0, 0.0, 1e-9, 0.5, 0.5]
        values = [0.3, -0.1, 0.2, 1.0, 0.9]
        noise = 1e-16
        _, var = posterior_mean_and_variance(locs, values, locs, UNIT, noise)
        _, want = oracle.posterior_mean_and_variance(locs, values, locs, UNIT, noise)
        np.testing.assert_allclose(var, want, rtol=0, atol=1e-10)
        cov = posterior(locs, values, locs, UNIT, noise).covariance
        want_cov = oracle.posterior(locs, values, locs, UNIT, noise).covariance
        np.testing.assert_allclose(cov, want_cov, rtol=0, atol=1e-10)

    @given(st.integers(0, 2**32 - 1), st.floats(-2.0, 2.0), st.floats(-10.0, 0.0))
    @settings(max_examples=80, deadline=None)
    def test_near_duplicates_agree_with_oracle(self, seed, log_s2, log_ratio):
        # Clusters of sensors at offsets 0, 1e-9 and 1e-6 from a common point,
        # signal variance s2 in [1e-2, 1e2], noise / s2 in [1e-10, 1]: the
        # library never raises and its variances match the batch solve to
        # 1e-6 s2.
        rng = np.random.default_rng(seed)
        s2 = 10.0**log_s2
        params = KernelParams(1.0, s2)
        d = int(rng.integers(1, 3))
        locs = [
            center + rng.choice([0.0, 1e-9, 1e-6]) * rng.choice([-1.0, 1.0], size=d)
            for center in rng.uniform(0, 3, size=(int(rng.integers(1, 6)), d))
            for _ in range(int(rng.integers(1, 5)))
        ]
        locs = np.array(locs)[rng.permutation(len(locs))]
        values = rng.normal(size=len(locs)) * math.sqrt(s2)
        noise = s2 * 10.0**log_ratio
        targets = np.vstack([locs, rng.uniform(0, 3, size=(3, d))])
        _, var = posterior_mean_and_variance(locs, values, targets, params, noise)
        cov = posterior(locs, values, targets, params, noise).covariance
        _, want = oracle.posterior_mean_and_variance(locs, values, targets, params, noise)
        np.testing.assert_allclose(var, want, rtol=0, atol=1e-6 * s2)
        np.testing.assert_array_equal(np.diag(cov), var)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_variance_never_exceeds_prior(self, seed):
        rng = np.random.default_rng(seed)
        obs, values, targets, noise = random_instance(rng, max_obs=8, max_targets=8)
        post = posterior(obs, values, targets, UNIT, noise)
        assert np.all(np.diag(post.covariance) <= UNIT.signal_variance + 1e-10)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_extra_observation_shrinks_variance(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 3))
        n = int(rng.integers(1, 8))
        obs = rng.uniform(-4, 4, size=(n, d))
        values = rng.normal(size=n)
        targets = rng.uniform(-4, 4, size=(5, d))
        noise = float(rng.uniform(1e-3, 1.0))
        _, before = posterior_mean_and_variance(obs[:-1], values[:-1], targets, UNIT, noise)
        _, after = posterior_mean_and_variance(obs, values, targets, UNIT, noise)
        assert np.all(after <= before + 1e-10)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        obs, values, targets, noise = random_instance(rng, max_obs=8, max_targets=6)
        if len(obs) < 2:
            return
        perm = rng.permutation(len(obs))
        base = posterior(obs, values, targets, UNIT, noise)
        shuffled = posterior(obs[perm], values[perm], targets, UNIT, noise)
        np.testing.assert_allclose(base.mean, shuffled.mean, atol=1e-10)
        np.testing.assert_allclose(base.covariance, shuffled.covariance, atol=1e-10)


class TestPointwiseConditional:
    def test_prior(self):
        assert pointwise_conditional([], [], [0.0], UNIT, 0.01) == (0.0, 1.0)

    def test_observed_at_target(self):
        _, var = pointwise_conditional([0.0], [1.0], [0.0], UNIT, 0.01)
        assert var == pytest.approx(1 - 1 / 1.01, rel=1e-10)

    def test_agrees_with_posterior(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            obs, values, targets, noise = random_instance(rng, max_obs=6, max_targets=1)
            mean, var = pointwise_conditional(obs, values, targets[0], UNIT, noise)
            post = posterior(obs, values, targets, UNIT, noise)
            assert mean == pytest.approx(post.mean[0], abs=1e-12)
            assert var == pytest.approx(post.covariance[0, 0], abs=1e-12)

    def test_flat_2d_coordinate_is_one_point(self):
        mean, var = pointwise_conditional(
            [[0.0, 0.0]], [1.0], (0.0, 0.0), UNIT, 0.01
        )
        assert var == pytest.approx(1 - 1 / 1.01, rel=1e-10)


class TestKernelParams:
    @pytest.mark.parametrize("ls,sv", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (np.inf, 1.0)])
    def test_invalid(self, ls, sv):
        with pytest.raises(ValueError):
            KernelParams(ls, sv)


class TestIncrementalConditioner:
    def test_tracks_from_scratch_solves(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 10, size=(30, 1))
        values = rng.normal(size=30)
        cond = IncrementalConditioner(pts, UNIT, 0.05)
        seen = []
        for step, idx in enumerate(rng.permutation(30)[:20]):
            cond.observe(int(idx), float(values[idx]))
            seen.append(int(idx))
            mean, var = oracle.posterior_mean_and_variance(
                pts[seen], values[seen], pts, UNIT, 0.05
            )
            np.testing.assert_allclose(cond.mean, mean, atol=1e-8)
            np.testing.assert_allclose(cond.variance, var, atol=1e-8)

    def test_hypothetical_reduction_matches_commit(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(0, 5, size=(12, 2))
        cond = IncrementalConditioner(pts, UNIT, 0.1)
        cond.observe(3, 1.2)
        predicted = oracle.hypothetical_reduction(pts, [3], 7, UNIT, 0.1)
        before = cond.variance.copy()
        cond.observe(7, -0.4)
        np.testing.assert_allclose(before - cond.variance, predicted, atol=1e-12)

    def test_residual_variance_matches_commit(self):
        # w'Sigma'w after each candidate, with the candidate's own weight
        # zeroed, against a from-scratch posterior that includes it
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 5, size=(14, 2))
        cond = IncrementalConditioner(pts, UNIT, 0.1)
        for idx in (2, 9, 5):
            cond.observe(idx, float(rng.normal()))
        weights = rng.normal(size=(3, 14))
        cands = [0, 4, 7, 13]
        got = cond.residual_variance(weights, cands)
        assert got.shape == (3, 4)
        for j, c in enumerate(cands):
            cov = oracle.posterior(pts[[2, 9, 5, c]], np.zeros(4), pts, UNIT, 0.1).covariance
            w = weights.copy()
            w[:, c] = 0.0
            np.testing.assert_allclose(got[:, j], np.einsum("ij,jk,ik->i", w, cov, w),
                                       atol=1e-10)

    def test_rejects_bad_input(self):
        cond = IncrementalConditioner([[0.0], [1.0]], UNIT, 0.1)
        with pytest.raises(IndexError):
            cond.observe(5, 1.0)
        with pytest.raises(ValueError):
            cond.observe(0, np.nan)

    def test_observe_raises_below_variance_clamp(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 5, size=(6, 1))
        cond = IncrementalConditioner(pts, UNIT, 0.1)
        cond.observe(1, 0.4)
        mean, n_obs = cond.mean.copy(), cond.n_observations
        # an understated variance at the observed target overshoots the update
        cond.variance[4] = 0.0
        with pytest.raises(ValueError, match="below round-off"):
            cond.observe(4, 0.2)
        assert cond.n_observations == n_obs
        np.testing.assert_array_equal(cond.mean, mean)

    def test_observe_jitters_the_pivot_where_the_plain_update_raises(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(0, 5, size=(6, 1))
        cond = IncrementalConditioner(pts, UNIT, 0.1)
        cond.observe(1, 0.4)
        probe = copy.deepcopy(cond)
        probe.observe(4, 0.2)
        drop = cond.variance - probe.variance  # row * row of the plain update
        # leave target 2 5e-10 short of the plain update, past the clamp
        cond.variance[2] = drop[2] - 5e-10
        before, pivot = cond.variance.copy(), cond.variance[4] + 0.1
        cond.observe(4, 0.2)
        # the pivot gets the smallest ladder jitter that keeps target 2 in
        # bounds, which is past the first rung here
        ladder = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
        jitter = next(j for j in ladder
                      if before[2] - drop[2] * pivot / (pivot + j) >= VARIANCE_CLAMP)
        assert jitter > ladder[0]
        np.testing.assert_allclose(
            cond.variance, np.maximum(before - drop * pivot / (pivot + jitter), 0.0),
            rtol=0, atol=1e-14,
        )

    def test_observe_clamps_round_off_negatives_to_zero(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(0, 5, size=(6, 1))
        cond = IncrementalConditioner(pts, UNIT, 0.1)
        cond.observe(1, 0.4)
        probe = copy.deepcopy(cond)
        probe.observe(4, 0.2)
        drop = cond.variance - probe.variance  # row * row of the next update
        # leave target 2 just inside the round-off band after the update
        cond.variance[2] = drop[2] + 0.5 * VARIANCE_CLAMP
        cond.observe(4, 0.2)
        assert cond.variance[2] == 0.0
        assert np.all(cond.variance >= 0.0)


class TestSeedAxis:
    """A conditioner over S fields holds, for every seed, exactly the numbers a
    conditioner of that field alone holds, bit for bit."""

    @staticmethod
    def assert_seeds_match(batch, singles):
        for s, single in enumerate(singles):
            np.testing.assert_array_equal(batch.mean[s], single.mean)
            np.testing.assert_array_equal(batch.variance[s], single.variance)
        assert batch.n_observations == tuple(single.n_observations for single in singles)

    @pytest.mark.parametrize("d", [1, 2])
    def test_batch_matches_one_conditioner_per_field(self, d):
        rng = np.random.default_rng(30 + d)
        locs = rng.uniform(0, 5, size=(5, 40, d))
        batch = IncrementalConditioner(locs, UNIT, 0.05)
        singles = [IncrementalConditioner(f, UNIT, 0.05) for f in locs]
        assert batch.mean.shape == batch.variance.shape == (5, 40)
        picked = [list(rng.permutation(40)) for _ in range(5)]
        for _ in range(60):  # seeds in any order, some far ahead of others
            s = int(rng.integers(5) if rng.random() < 0.5 else rng.integers(2))
            i, v = picked[s].pop(), float(rng.normal())
            batch.observe(i, v, s)
            singles[s].observe(i, v)
            self.assert_seeds_match(batch, singles)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("k", [1, 5])
    def test_batched_scores_match_one_conditioner_per_field(self, k, d):
        # seeds in lockstep, one observation each a step as the DAS loop plays
        # them; scoring starts at step 5, so each prior is built mid-run and
        # later kernel rows come from it; weights shared by every seed and one
        # set per seed; factors sized to the run, short of it (they grow) and
        # unsized
        rng = np.random.default_rng(60 + 10 * d + k)
        n, steps = 25, 12
        for n_seeds in range(1, 9):
            locs = rng.uniform(0, 5, size=(n_seeds, n, d))
            batch = IncrementalConditioner(locs, UNIT, 0.05, capacity=(steps, 7, 0)[n_seeds % 3])
            singles = [IncrementalConditioner(f, UNIT, 0.05) for f in locs]
            order = [rng.permutation(n) for _ in range(n_seeds)]
            shared, own = rng.normal(size=(k, n)), rng.normal(size=(n_seeds, k, n))
            for step in range(steps):
                if step >= 5:
                    rem = np.sort([o[step:] for o in order], axis=1)
                    for weights in (shared, own):
                        got = batch.residual_variance(weights, rem)
                        assert got.shape == (n_seeds, k, n - step)
                        for s, single in enumerate(singles):
                            w = weights if weights.ndim == 2 else weights[s]
                            np.testing.assert_array_equal(
                                got[s], single.residual_variance(w, rem[s]))
                for s in range(n_seeds):
                    i, v = int(order[s][step]), float(rng.normal())
                    batch.observe(i, v, s)
                    singles[s].observe(i, v)
            self.assert_seeds_match(batch, singles)

    def test_batched_scores_match_the_oracle(self):
        # each seed's scores against tests/oracle.py's per-candidate scorers:
        # the variance left at virtual targets, and applications' error variances
        rng = np.random.default_rng(70)
        n_seeds, n = 4, 14
        virtual = np.array([[0.5], [2.5], [4.5]])
        locs = rng.uniform(0, 5, size=(n_seeds, n, 1))
        fields = [SensorField(l, v, v, 0.1) for l, v in zip(locs, rng.normal(size=(n_seeds, n)))]
        states = [DasState.fresh(n) for _ in fields]
        targets = np.concatenate([locs, np.broadcast_to(virtual, (n_seeds, 3, 1))], axis=1)
        cond = IncrementalConditioner(targets, UNIT, 0.1, capacity=4)
        for _ in range(4):
            for s, field in enumerate(fields):
                i = int(rng.choice(states[s].remaining_index))
                cond.observe(i, float(field.measurements[i]), s)
                states[s] = states[s].with_uploads([i], [field.measurements[i]])
        rem = np.stack([state.remaining_index for state in states])
        traces = cond.residual_variance(np.hstack([np.zeros((3, n)), np.eye(3)]), rem).sum(axis=1)
        apps = np.concatenate([rng.normal(size=(n_seeds, 2, n)), np.zeros((n_seeds, 2, 3))], axis=2)
        for s, state in enumerate(states):
            apps[s][:, : n][:, state.mask] = 0.0  # uploaded entries carry no error
        mses = cond.residual_variance(apps, rem)
        for s, (field, state) in enumerate(zip(fields, states)):
            np.testing.assert_allclose(traces[s], oracle.virtual_traces(field, state, virtual, UNIT),
                                       rtol=0, atol=1e-10)
            np.testing.assert_allclose(mses[s].T, oracle.hypothetical_mses(apps[s, :, :n], field,
                                                                           state, UNIT),
                                       rtol=0, atol=1e-10)

    def test_failing_seed_is_left_unchanged(self):
        rng = np.random.default_rng(40)
        locs = rng.uniform(0, 5, size=(3, 12, 1))
        batch = IncrementalConditioner(locs, UNIT, 0.1)
        singles = [IncrementalConditioner(f, UNIT, 0.1) for f in locs]
        for s in range(3):
            batch.observe(s + 1, 0.4, s)
            singles[s].observe(s + 1, 0.4)
        # an understated variance at seed 1's next target overshoots its update
        batch.variance[1, 7] = singles[1].variance[7] = 0.0
        with pytest.raises(ValueError, match="below round-off") as want:
            singles[1].observe(7, 0.2)
        with pytest.raises(ValueError, match="below round-off") as got:
            batch.observe(7, 0.2, 1)
        assert str(got.value) == str(want.value)
        for s in (0, 2):
            batch.observe(7, 0.2, s)
            singles[s].observe(7, 0.2)
        self.assert_seeds_match(batch, singles)

    def test_rejects_bad_input(self):
        batch = IncrementalConditioner(np.zeros((3, 4, 1)) + np.arange(4.0)[:, None], UNIT, 0.1)
        with pytest.raises(IndexError, match="seed"):
            batch.observe(1, 0.5, 3)
        with pytest.raises(IndexError, match="target"):
            batch.observe(4, 0.5, 1)
        with pytest.raises(ValueError, match="not finite"):
            batch.observe(1, np.nan, 1)
        assert batch.n_observations == (0, 0, 0)
        with pytest.raises(ValueError, match="one row of candidates per seed"):
            batch.residual_variance(np.ones((1, 4)), [0, 1])
        with pytest.raises(ValueError, match="one row of candidates per seed"):
            batch.residual_variance(np.ones((1, 4)), [[0, 1], [0, 1]])
        for bad in (4, -1):
            with pytest.raises(IndexError, match="candidate"):
                batch.residual_variance(np.ones((1, 4)), [[0, 1], [0, 1], [bad, 1]])


class TestKernelRow:
    """The kernel sums squared coordinate differences one coordinate at a time;
    for the few coordinates a location has, that is the left-to-right sum the
    former reduction over the last axis gave, so every row is bit-identical."""

    PARAMS = KernelParams(0.7, 1.3)

    @staticmethod
    def points(rng, n, d, near):
        pts = rng.uniform(-3, 3, size=(n, d))
        if near:  # clusters of near-duplicates around a few centres
            pts = pts[rng.integers(0, 4, size=n)] + rng.choice(
                [0.0, 1e-12, 1e-9, 1e-6], size=(n, d))
        return pts

    @pytest.mark.parametrize("near", [False, True], ids=["spread", "near-duplicate"])
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_sq_exp_equals_the_reduction_bitwise(self, d, near):
        rng = np.random.default_rng(10 + d)
        rows, cols = self.points(rng, 40, d, near), self.points(rng, 33, d, near)
        want = oracle.sq_exp_reduced(rows[:, None, :] - cols[None, :, :], self.PARAMS)
        got = _sq_exp(np.moveaxis(rows[:, None, :] - cols[None, :, :], -1, 0), self.PARAMS)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(gram(rows, cols, self.PARAMS), want)
        for i, j in ((0, 0), (3, 7), (39, 32)):
            assert kernel(rows[i], cols[j], self.PARAMS) == want[i, j]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_observe_row_equals_gram_row_bitwise(self, d, monkeypatch):
        rng = np.random.default_rng(20 + d)
        pts = self.points(rng, 50, d, near=True)
        rows = []

        def recording(diff, params):
            out = _sq_exp(diff, params)
            rows.append(out)
            return out

        monkeypatch.setattr(fieldsense.gp, "_sq_exp", recording)
        cond = IncrementalConditioner(pts, self.PARAMS, 0.05)
        order = [int(i) for i in rng.permutation(50)[:12]]
        for idx in order:
            cond.observe(idx, float(rng.normal()))
        full = oracle.sq_exp_reduced(pts[:, None, :] - pts[None, :, :], self.PARAMS)
        assert len(rows) == len(order)
        for idx, row in zip(order, rows):
            np.testing.assert_array_equal(row, full[idx])

    def test_cached_prior_midway_leaves_run_das_unchanged(self, monkeypatch):
        field = gen_2d(300, 0.1, np.random.default_rng(4))
        params = KernelParams()
        plain = run_das(field, "max-variance", 40, params)

        observe = IncrementalConditioner.observe
        seen = []

        def score_and_observe(cond, index, value, seed=0):
            if len(seen) == 15:  # builds the prior; later rows come from it
                rem = np.setdiff1d(np.arange(field.n_sensors), seen)[None]
                cond.residual_variance(np.ones((1, field.n_sensors)), rem)
                assert cond._prior is not None
            seen.append(index)
            return observe(cond, index, value, seed)

        monkeypatch.setattr(IncrementalConditioner, "observe", score_and_observe)
        switched = run_das(field, "max-variance", 40, params)
        assert len(seen) == 40
        assert [log.selected for log in switched] == [log.selected for log in plain]
        assert [log.mse for log in switched] == [log.mse for log in plain]
