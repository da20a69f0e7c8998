"""GP core: kernel values, posterior against a naive oracle, conditioning laws."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, cholesky

import fieldsense.gp
from fieldsense.das import run_das_batches
from fieldsense.fields import SensorField, gen_2d
from fieldsense.gp import (
    VARIANCE_CLAMP,
    IncrementalConditioner,
    KernelParams,
    _sq_exp,
    gram,
    posterior,
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


def kernel_value(a, b, params):
    """The kernel value between two points: ``gram`` on one-point sets."""
    return float(gram([a], [b], params)[0, 0])


class TestKernel:
    def test_zero_distance_gives_signal_variance(self):
        assert kernel_value([0.3], [0.3], UNIT) == 1.0
        assert kernel_value([0.3], [0.3], KernelParams(2.0, 3.5)) == 3.5

    def test_unit_separation(self):
        assert kernel_value([0.0], [1.0], UNIT) == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_2d_three_four_five(self):
        assert kernel_value([0.0, 0.0], [3.0, 4.0], UNIT) == pytest.approx(
            math.exp(-12.5), rel=1e-12
        )

    def test_rejects_points_without_coordinates(self):
        with pytest.raises(ValueError):
            kernel_value([], [], UNIT)
        with pytest.raises(ValueError):
            gram(np.zeros((2, 0)), np.zeros((3, 0)), UNIT)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_value([0.0], [1.0, 2.0], UNIT)

    @given(st.integers(0, 2**32 - 1))
    def test_symmetry_exact(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(-10, 10, size=(2, 2))
        assert kernel_value(a, b, UNIT) == kernel_value(b, a, UNIT)

    def test_range(self):
        params = KernelParams(0.7, 2.0)
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = rng.uniform(-3, 3, size=(2, 1))
            v = kernel_value(a, b, params)
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
        assert np.all(np.isfinite(post.mean)) and np.all(np.isfinite(post.variance))
        assert np.all(post.variance >= 0.0)

    def test_singular_factor_variances_agree_with_oracle(self):
        # The case above: the batch oracle needs diagonal jitter and leaves
        # variances of about 3e-11; the library must agree to 1e-10.  (The
        # means are not compared: with noise 1e-16 the coincident values
        # 0.3 and -0.1 pin the latent value only up to round-off.)
        locs = [0.0, 0.0, 1e-9, 0.5, 0.5]
        values = [0.3, -0.1, 0.2, 1.0, 0.9]
        noise = 1e-16
        post = posterior(locs, values, locs, UNIT, noise)
        _, want = oracle.posterior_mean_and_variance(locs, values, locs, UNIT, noise)
        np.testing.assert_allclose(post.variance, want, rtol=0, atol=1e-10)
        cov = post.covariance
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
        var = posterior(locs, values, targets, params, noise).variance
        _, want = oracle.posterior_mean_and_variance(locs, values, targets, params, noise)
        np.testing.assert_allclose(var, want, rtol=0, atol=1e-6 * s2)

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
        before = posterior(obs[:-1], values[:-1], targets, UNIT, noise).variance
        after = posterior(obs, values, targets, UNIT, noise).variance
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


def at_one_point(obs, values, target, noise):
    """Posterior mean and variance at one location, ``target`` (a coordinate
    vector): ``posterior`` with one target."""
    post = posterior(obs, values, [target], UNIT, noise)
    return float(post.mean[0]), float(post.variance[0])


class TestPointwiseConditional:
    def test_prior(self):
        assert at_one_point([], [], [0.0], 0.01) == (0.0, 1.0)

    def test_observed_at_target(self):
        _, var = at_one_point([0.0], [1.0], [0.0], 0.01)
        assert var == pytest.approx(1 - 1 / 1.01, rel=1e-10)

    def test_agrees_with_posterior(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            obs, values, targets, noise = random_instance(rng, max_obs=6, max_targets=1)
            mean, var = at_one_point(obs, values, targets[0], noise)
            post = posterior(obs, values, targets, UNIT, noise)
            assert mean == pytest.approx(post.mean[0], abs=1e-12)
            assert var == pytest.approx(post.covariance[0, 0], abs=1e-12)

    def test_flat_2d_coordinate_is_one_point(self):
        _, var = at_one_point([[0.0, 0.0]], [1.0], (0.0, 0.0), 0.01)
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
        cond = IncrementalConditioner(pts[None], UNIT, 0.05)
        seen = []
        for step, idx in enumerate(rng.permutation(30)[:20]):
            cond.observe(int(idx), float(values[idx]), 0)
            seen.append(int(idx))
            mean, var = oracle.posterior_mean_and_variance(
                pts[seen], values[seen], pts, UNIT, 0.05
            )
            np.testing.assert_allclose(cond.mean[0], mean, atol=1e-8)
            np.testing.assert_allclose(cond.variance[0], var, atol=1e-8)

    def test_hypothetical_reduction_matches_commit(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(0, 5, size=(12, 2))
        cond = IncrementalConditioner(pts[None], UNIT, 0.1)
        cond.observe(3, 1.2, 0)
        predicted = oracle.hypothetical_reduction(pts, [3], 7, UNIT, 0.1)
        before = cond.variance[0].copy()
        cond.observe(7, -0.4, 0)
        np.testing.assert_allclose(before - cond.variance[0], predicted, atol=1e-12)

    def test_residual_variance_matches_commit(self):
        # w'Sigma'w after each candidate, with the weights of the observed
        # targets and the candidate zeroed, against a from-scratch posterior
        # that includes it
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 5, size=(14, 2))
        values = [float(rng.normal()) for _ in range(3)]
        weights = rng.normal(size=(3, 14))
        cond = IncrementalConditioner(pts[None], UNIT, 0.1, weights=weights)
        for idx, value in zip((2, 9, 5), values):
            cond.observe(idx, value, 0)
        cands = [0, 4, 7, 13]
        got = cond.residual_variance([cands])[0]
        assert got.shape == (3, 4)
        for j, c in enumerate(cands):
            cov = oracle.posterior(pts[[2, 9, 5, c]], np.zeros(4), pts, UNIT, 0.1).covariance
            w = weights.copy()
            w[:, [2, 9, 5, c]] = 0.0
            np.testing.assert_allclose(got[:, j], np.einsum("ij,jk,ik->i", w, cov, w),
                                       atol=1e-10)

    def test_rejects_bad_input(self):
        cond = IncrementalConditioner([[[0.0], [1.0]]], UNIT, 0.1)
        with pytest.raises(IndexError):
            cond.observe(5, 1.0, 0)
        with pytest.raises(ValueError):
            cond.observe(0, np.nan, 0)
        for flat in ([[0.0], [1.0]], [0.0, 1.0], np.zeros((1, 2, 3, 1))):
            with pytest.raises(ValueError, match=r"must be an \(S, n, d\) array, got shape"):
                IncrementalConditioner(flat, UNIT, 0.1)
        with pytest.raises(ValueError, match="weights given at construction; none were given"):
            cond.residual_variance([[0, 1]])

    def test_observe_reports_below_variance_clamp(self):
        # the failed upload is returned, with its message, and changes nothing
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 5, size=(6, 1))
        cond = IncrementalConditioner(pts[None], UNIT, 0.1)
        cond.observe(1, 0.4, 0)
        mean, n_obs = cond.mean.copy(), list(cond.n_observations)
        # an understated variance at the observed target overshoots the update
        cond.variance[0, 4] = 0.0
        failed = cond.observe(4, 0.2, 0)
        assert list(failed) == [0] and "below round-off" in failed[0]
        assert cond.n_observations == n_obs
        np.testing.assert_array_equal(cond.mean, mean)

    def test_observe_jitters_the_pivot_where_the_plain_update_raises(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(0, 5, size=(6, 1))
        cond = IncrementalConditioner(pts[None], UNIT, 0.1)
        cond.observe(1, 0.4, 0)
        probe = copy.deepcopy(cond)
        probe.observe(4, 0.2, 0)
        drop = cond.variance[0] - probe.variance[0]  # row * row of the plain update
        # leave target 2 5e-10 short of the plain update, past the clamp
        cond.variance[0, 2] = drop[2] - 5e-10
        before, pivot = cond.variance[0].copy(), cond.variance[0, 4] + 0.1
        assert cond.observe(4, 0.2, 0) == {}
        # the pivot gets the smallest ladder jitter that keeps target 2 in
        # bounds, which is past the first rung here
        ladder = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
        jitter = next(j for j in ladder
                      if before[2] - drop[2] * pivot / (pivot + j) >= VARIANCE_CLAMP)
        assert jitter > ladder[0]
        np.testing.assert_allclose(
            cond.variance[0], np.maximum(before - drop * pivot / (pivot + jitter), 0.0),
            rtol=0, atol=1e-14,
        )

    def test_observe_clamps_round_off_negatives_to_zero(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(0, 5, size=(6, 1))
        cond = IncrementalConditioner(pts[None], UNIT, 0.1)
        cond.observe(1, 0.4, 0)
        probe = copy.deepcopy(cond)
        probe.observe(4, 0.2, 0)
        drop = cond.variance[0] - probe.variance[0]  # row * row of the next update
        # leave target 2 just inside the round-off band after the update
        cond.variance[0, 2] = drop[2] + 0.5 * VARIANCE_CLAMP
        cond.observe(4, 0.2, 0)
        assert cond.variance[0, 2] == 0.0
        assert np.all(cond.variance >= 0.0)


def batch_of_one(locs, *args, **kwargs):
    """A conditioner over the one field at ``locs``, (n, d): a batch of one."""
    return IncrementalConditioner(locs[None], *args, **kwargs)


class TestSeedAxis:
    """A conditioner over S fields holds, for every seed, exactly the numbers a
    batch of that field alone holds, bit for bit."""

    @staticmethod
    def assert_seeds_match(batch, singles):
        for s, single in enumerate(singles):
            np.testing.assert_array_equal(batch.mean[s], single.mean[0])
            np.testing.assert_array_equal(batch.variance[s], single.variance[0])
        assert batch.n_observations == [single.n_observations[0] for single in singles]

    @pytest.mark.parametrize("d", [1, 2])
    def test_batch_matches_one_conditioner_per_field(self, d):
        rng = np.random.default_rng(30 + d)
        locs = rng.uniform(0, 5, size=(5, 40, d))
        batch = IncrementalConditioner(locs, UNIT, 0.05)
        singles = [batch_of_one(f, UNIT, 0.05) for f in locs]
        assert batch.mean.shape == batch.variance.shape == (5, 40)
        picked = [list(rng.permutation(40)) for _ in range(5)]
        for _ in range(60):  # seeds in any order, some far ahead of others
            s = int(rng.integers(5) if rng.random() < 0.5 else rng.integers(2))
            i, v = picked[s].pop(), float(rng.normal())
            batch.observe(i, v, s)
            singles[s].observe(i, v, 0)
            self.assert_seeds_match(batch, singles)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("k", [1, 5])
    def test_batched_scores_match_one_conditioner_per_field(self, k, d):
        # seeds in lockstep, one observation each a step as the DAS loop plays
        # them; one batch scores a set of weights shared by every seed and
        # one a set per seed, both fed the same uploads, their products with
        # the prior downdated through 5 uploads before scoring starts; factors
        # sized to the run, short of it (they grow) and unsized
        rng = np.random.default_rng(60 + 10 * d + k)
        n, steps = 25, 12
        for n_seeds in range(1, 9):
            locs = rng.uniform(0, 5, size=(n_seeds, n, d))
            order = [rng.permutation(n) for _ in range(n_seeds)]
            shared, own = rng.normal(size=(k, n)), rng.normal(size=(n_seeds, k, n))
            capacity = (steps, 7, 0)[n_seeds % 3]
            batches = [IncrementalConditioner(locs, UNIT, 0.05, capacity=capacity, weights=w)
                       for w in (shared, own)]
            singles = [[batch_of_one(f, UNIT, 0.05, weights=w if w.ndim == 2 else w[s])
                        for s, f in enumerate(locs)] for w in (shared, own)]
            for step in range(steps):
                if step >= 5:
                    rem = np.sort([o[step:] for o in order], axis=1)
                    for batch, ones in zip(batches, singles):
                        got = batch.residual_variance(rem)
                        assert got.shape == (n_seeds, k, n - step)
                        for s, single in enumerate(ones):
                            np.testing.assert_array_equal(
                                got[s], single.residual_variance(rem[s][None])[0])
                for s in range(n_seeds):
                    i, v = int(order[s][step]), float(rng.normal())
                    for batch, ones in zip(batches, singles):
                        batch.observe(i, v, s)
                        ones[s].observe(i, v, 0)
            for batch, ones in zip(batches, singles):
                self.assert_seeds_match(batch, ones)

    def test_batched_scores_match_the_oracle(self):
        # each seed's scores against tests/oracle.py's per-candidate scorers:
        # the variance left at virtual targets, and applications' error variances
        rng = np.random.default_rng(70)
        n_seeds, n = 4, 14
        virtual = np.array([[0.5], [2.5], [4.5]])
        locs = rng.uniform(0, 5, size=(n_seeds, n, 1))
        fields = [SensorField(l, v, v, 0.1) for l, v in zip(locs, rng.normal(size=(n_seeds, n)))]
        uploaded = [[] for _ in fields]
        for _ in range(4):
            for s, field in enumerate(fields):
                uploaded[s].append(int(rng.choice(oracle.remaining(field, uploaded[s]))))
        targets = np.concatenate([locs, np.broadcast_to(virtual, (n_seeds, 3, 1))], axis=1)
        apps = np.concatenate([rng.normal(size=(n_seeds, 2, n)), np.zeros((n_seeds, 2, 3))], axis=2)
        conds = [IncrementalConditioner(targets, UNIT, 0.1, capacity=4, weights=w)
                 for w in (np.hstack([np.zeros((3, n)), np.eye(3)]), apps)]
        for cond in conds:
            for step in range(4):
                for s, field in enumerate(fields):
                    i = uploaded[s][step]
                    cond.observe(i, float(field.measurements[i]), s)
        rem = np.array([oracle.remaining(f, u) for f, u in zip(fields, uploaded)])
        traces = conds[0].residual_variance(rem).sum(axis=1)
        mses = conds[1].residual_variance(rem)
        for s, (field, done) in enumerate(zip(fields, uploaded)):
            np.testing.assert_allclose(traces[s], oracle.virtual_traces(field, done, virtual, UNIT),
                                       rtol=0, atol=1e-10)
            np.testing.assert_allclose(mses[s].T, oracle.hypothetical_mses(apps[s, :, :n], field,
                                                                           done, UNIT),
                                       rtol=0, atol=1e-10)

    def test_growth_leaves_unwritten_rows_zero(self):
        # a block of 2 rows doubles (to 8, 16 and 32 rows) while the seeds
        # hold 3, 9 and 17 observations, so most rows past a seed's own come
        # from a growth; a seed scores as its own conditioner only if they
        # are zero
        rng = np.random.default_rng(80)
        n = 30
        locs = rng.uniform(0, 5, size=(3, n, 2))
        weights = rng.normal(size=(2, n))
        batch = IncrementalConditioner(locs, UNIT, 0.05, capacity=2, weights=weights)
        singles = [batch_of_one(f, UNIT, 0.05, weights=weights) for f in locs]
        for s, count in enumerate((3, 9, 17)):
            for i in rng.permutation(n)[:count].tolist():
                v = float(rng.normal())
                batch.observe(i, v, s)
                singles[s].observe(i, v, 0)
        self.assert_seeds_match(batch, singles)
        got = batch.residual_variance(np.tile(np.arange(n), (3, 1)))
        for s, single in enumerate(singles):
            np.testing.assert_allclose(got[s], single.residual_variance([np.arange(n)])[0],
                                       rtol=0, atol=1e-12)

    def test_failing_seed_is_left_unchanged(self):
        rng = np.random.default_rng(40)
        locs = rng.uniform(0, 5, size=(3, 12, 1))
        batch = IncrementalConditioner(locs, UNIT, 0.1)
        singles = [batch_of_one(f, UNIT, 0.1) for f in locs]
        for s in range(3):
            batch.observe(s + 1, 0.4, s)
            singles[s].observe(s + 1, 0.4, 0)
        # an understated variance at seed 1's next target overshoots its update
        batch.variance[1, 7] = singles[1].variance[0, 7] = 0.0
        want = singles[1].observe(7, 0.2, 0)
        assert list(want) == [0] and "below round-off" in want[0]
        assert batch.observe(7, 0.2, 1) == {1: want[0]}
        for s in (0, 2):
            batch.observe(7, 0.2, s)
            singles[s].observe(7, 0.2, 0)
        self.assert_seeds_match(batch, singles)

    @pytest.mark.parametrize("d", [1, 2])
    def test_slot_matches_one_conditioner_per_field(self, d):
        # slots of distinct seeds, in any order or a run of consecutive seeds,
        # over seeds holding ragged observation counts; the batch also
        # downdates its weight rows' products with the prior
        rng = np.random.default_rng(85 + d)
        n_seeds, n = 6, 30
        locs = rng.uniform(0, 5, size=(n_seeds, n, d))
        batch = IncrementalConditioner(locs, UNIT, 0.05, weights=np.ones((1, n)))
        singles = [batch_of_one(f, UNIT, 0.05) for f in locs]
        left = [list(rng.permutation(n)) for _ in range(n_seeds)]
        for step in range(14):
            size = int(rng.integers(1, n_seeds + 1))
            if step % 3:
                slot = rng.choice(n_seeds, size=size, replace=False).tolist()
            else:
                first = int(rng.integers(n_seeds - size + 1))
                slot = list(range(first, first + size))
            idx = [int(left[s].pop()) for s in slot]
            vals = rng.normal(size=size).tolist()
            assert batch.observe(np.array(idx), np.array(vals), np.array(slot)) == {}
            for s, i, v in zip(slot, idx, vals):
                singles[s].observe(i, v, 0)
            self.assert_seeds_match(batch, singles)
        assert len(set(batch.n_observations)) > 1

    def test_slot_retries_or_leaves_a_seed_alone(self):
        # one slot over four seeds: seed 1's pivot needs jitter, seed 2's
        # update fails at every rung, seeds 0 and 3 take the plain update
        rng = np.random.default_rng(90)
        locs = rng.uniform(0, 5, size=(4, 6, 1))
        batch = IncrementalConditioner(locs, UNIT, 0.1)
        singles = [batch_of_one(f, UNIT, 0.1) for f in locs]
        for s in range(4):
            batch.observe(1, 0.4, s)
            singles[s].observe(1, 0.4, 0)
        probe = copy.deepcopy(singles[1])
        probe.observe(4, 0.2, 0)
        drop = singles[1].variance[0] - probe.variance[0]  # row * row of the plain update
        # target 2 left 5e-10 short of the plain update, past the clamp
        batch.variance[1, 2] = singles[1].variance[0, 2] = drop[2] - 5e-10
        # an understated variance at seed 2's target overshoots any update
        batch.variance[2, 4] = singles[2].variance[0, 4] = 0.0
        assert batch.variance[1, 2] - drop[2] < VARIANCE_CLAMP  # seed 1's plain update fails
        want = singles[2].observe(4, 0.2, 0)
        assert list(want) == [0] and "below round-off" in want[0]
        before = copy.deepcopy(batch)
        failed = batch.observe([4, 4, 4, 4], [0.2, -0.3, 0.2, 0.7], [3, 1, 2, 0])
        assert failed == {2: want[0]}
        for s, v in ((0, 0.7), (1, -0.3), (3, 0.2)):
            singles[s].observe(4, v, 0)
        self.assert_seeds_match(batch, singles)
        for arr in ("_a", "_c", "mean", "variance"):  # seed 2 is left as it was
            np.testing.assert_array_equal(getattr(batch, arr)[2], getattr(before, arr)[2])

    def test_slot_rejects_bad_input_and_changes_nothing(self):
        batch = IncrementalConditioner(np.zeros((3, 4, 1)) + np.arange(4.0)[:, None], UNIT, 0.1)
        for args, err, match in [
            (([1, 2], [0.5], [0, 1]), ValueError, "one target and value per seed"),
            (([1, 2, 3], [0.5, 0.5, 0.5], [0, 3, 1]), IndexError, "seed 3"),
            (([1, 4], [0.5, 0.5], [0, 1]), IndexError, "target index 4"),
            (([1, 2], [0.5, np.inf], [0, 1]), ValueError, "not finite"),
        ]:
            with pytest.raises(err, match=match):
                batch.observe(*args)
        assert batch.n_observations == [0, 0, 0]
        np.testing.assert_array_equal(batch.mean, 0.0)
        np.testing.assert_array_equal(batch.variance, 1.0)

    def test_rejects_bad_input(self):
        batch = IncrementalConditioner(np.zeros((3, 4, 1)) + np.arange(4.0)[:, None], UNIT, 0.1,
                                       weights=np.ones((1, 4)))
        with pytest.raises(IndexError, match="seed"):
            batch.observe(1, 0.5, 3)
        with pytest.raises(IndexError, match="target"):
            batch.observe(4, 0.5, 1)
        with pytest.raises(ValueError, match="not finite"):
            batch.observe(1, np.nan, 1)
        assert batch.n_observations == [0, 0, 0]
        with pytest.raises(ValueError, match="one row of candidates per seed"):
            batch.residual_variance([0, 1])
        with pytest.raises(ValueError, match="one row of candidates per seed"):
            batch.residual_variance([[0, 1], [0, 1]])
        for bad in (4, -1):
            with pytest.raises(IndexError, match="candidate"):
                batch.residual_variance([[0, 1], [0, 1], [bad, 1]])

    def test_rejects_bad_weights(self):
        locs = np.zeros((3, 4, 1)) + np.arange(4.0)[:, None]
        shape = r"weights must be \(k, 4\) or \(3, k, 4\) rows with k >= 1, got shape "
        for bad, match in [
            (np.ones(4), shape + r"\(4,\)"),
            (np.ones((0, 4)), shape + r"\(0, 4\)"),
            (np.ones((1, 5)), shape + r"\(1, 5\)"),
            (np.ones((2, 1, 4)), shape + r"\(2, 1, 4\)"),
            (np.ones((3, 0, 4)), shape + r"\(3, 0, 4\)"),
            (np.ones((1, 3, 1, 4)), shape + r"\(1, 3, 1, 4\)"),
            ([[1.0, np.nan, 1.0, 1.0]], "weights must be finite, got nan"),
            (np.array([[[1.0, 1.0, 1.0, -np.inf]]] * 3), "weights must be finite, got -inf"),
        ]:
            with pytest.raises(ValueError, match=match):
                IncrementalConditioner(locs, UNIT, 0.1, weights=bad)
        with pytest.raises(ValueError, match=r"\(k, 4\) or \(1, k, 4\) .* got shape \(4,\)"):
            batch_of_one(np.arange(4.0)[:, None], UNIT, 0.1, weights=np.ones(4))

    def test_observed_weights_need_not_be_zeroed(self):
        # rows with weight on targets that upload later score, after those
        # uploads, as the rows zeroed there from the start: W K loses each
        # uploaded column as it uploads, where the zeroed rows never had it,
        # so the two agree to round-off, and both with the dense oracle
        rng = np.random.default_rng(90)
        n_seeds, n = 4, 30
        locs = rng.uniform(0, 5, size=(n_seeds, n, 2))
        raw = rng.normal(size=(3, n))
        uploaded = [rng.permutation(n)[:6].tolist() for _ in range(n_seeds)]
        zeroed = np.repeat(raw[None], n_seeds, axis=0)
        for s, done in enumerate(uploaded):
            zeroed[s][:, done] = 0.0
        rem = np.array([np.setdiff1d(np.arange(n), done) for done in uploaded])
        conds = [IncrementalConditioner(locs, UNIT, 0.05, weights=w) for w in (raw, zeroed)]
        for step in range(6):
            picks, vals = np.array([done[step] for done in uploaded]), rng.normal(size=n_seeds)
            for cond in conds:
                cond.observe(picks, vals, np.arange(n_seeds))
        got, want_zeroed = (cond.residual_variance(rem) for cond in conds)
        scale = 1e-12 * np.abs(want_zeroed).max()
        np.testing.assert_allclose(got, want_zeroed, rtol=0, atol=scale)
        want = oracle.dense_residual_variance(conds[0], raw, rem, uploaded)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


class TestFullSlot:
    """One observe call takes every upload its caller has: a full slot, one
    upload of every seed in seed order, or seeds in any order, repeated or
    not.  Each run of consecutive seeds holding equally many rows takes one
    stacked product; the call holds exactly what the same uploads, one at a
    time, hold."""

    @staticmethod
    def assert_same(got, want):
        for arr in ("_a", "_c", "mean", "variance"):
            np.testing.assert_array_equal(getattr(got, arr), getattr(want, arr))
        assert got.n_observations == want.n_observations

    @staticmethod
    def assert_singles(batch, singles):
        """Every seed of ``batch`` holds its own conditioner's factor rows and
        posterior, and its rows past them are zero."""
        TestSeedAxis.assert_seeds_match(batch, singles)
        for s, single in enumerate(singles):
            t = single.n_observations[0]
            np.testing.assert_array_equal(batch._a[s, :t], single._a[0, :t])
            np.testing.assert_array_equal(batch._c[s, :t], single._c[0, :t])
            np.testing.assert_array_equal(batch._a[s, t:], 0.0)
            np.testing.assert_array_equal(batch._c[s, t:], 0.0)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 37, 300])
    def test_stacked_slot_matches_the_seed_loop(self, n, d):
        # from t = 0 (no rows), t = 1 and up; factors sized short so they grow
        rng = np.random.default_rng(100 + n + d)
        for n_seeds in (1, 3, 10):
            locs = rng.uniform(0, 5, size=(n_seeds, n, d))
            stacked = IncrementalConditioner(locs, UNIT, 0.05, capacity=3)
            looped = IncrementalConditioner(locs, UNIT, 0.05, capacity=3)
            for _ in range(min(n, 12)):
                idx = rng.integers(n, size=n_seeds)
                vals = rng.normal(size=n_seeds)
                assert stacked.observe(idx, vals, np.arange(n_seeds)) == {}
                for s in range(n_seeds):  # one call a seed: the per-seed loop
                    assert looped.observe(idx[s:s + 1], vals[s:s + 1], [s]) == {}
                self.assert_same(stacked, looped)

    def test_failing_seed_keeps_a_zero_row(self):
        # seed 2's update fails at every rung mid-slot: its factor row stays
        # zero and it is left unchanged
        rng = np.random.default_rng(110)
        locs = rng.uniform(0, 5, size=(4, 20, 1))
        every = np.arange(4)
        stacked = IncrementalConditioner(locs, UNIT, 0.1, capacity=5)
        for step in range(3):
            stacked.observe(np.full(4, step), rng.normal(size=4), every)
        looped = copy.deepcopy(stacked)
        before = copy.deepcopy(stacked)
        for cond in (stacked, looped):
            cond.variance[2, 9] = 0.0  # an understated variance overshoots any update
        vals = rng.normal(size=4)
        failed = stacked.observe(np.full(4, 9), vals, every)
        want = {}
        for s in range(4):  # one call a seed: the per-seed loop
            want.update(looped.observe([9], vals[s:s + 1], [s]))
        assert failed == want
        assert list(failed) == [2] and "below round-off" in failed[2]
        self.assert_same(stacked, looped)
        np.testing.assert_array_equal(stacked._a[2, 3], 0.0)
        assert stacked._c[2, 3] == 0.0 and stacked.n_observations == [4, 4, 3, 4]
        for arr in ("_a", "_c", "mean"):
            np.testing.assert_array_equal(getattr(stacked, arr)[2], getattr(before, arr)[2])
        # the next full slot holds ragged counts: seeds 0 and 1 stack, 2 and 3 loop
        vals = rng.normal(size=4)
        stacked.observe(np.full(4, 11), vals, every)
        for s in range(4):
            looped.observe([11], vals[s:s + 1], [s])
        self.assert_same(stacked, looped)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 37, 300])
    def test_repeated_seeds_match_one_scalar_call_at_a_time(self, n, d):
        # calls of 1 to 3S uploads, seeds drawn with repeats in any order, up to
        # 40 rows a seed, factors sized short so they grow; the batch
        # downdates its weight rows' products with the prior on every call,
        # and then scores as the dense oracle does
        rng = np.random.default_rng(150 + n + d)
        for n_seeds in (1, 3, 10):
            locs = rng.uniform(0, 5, size=(n_seeds, n, d))
            weights, every = rng.normal(size=(2, n)), np.tile(np.arange(n), (n_seeds, 1))
            batch = IncrementalConditioner(locs, UNIT, 0.05, capacity=3, weights=weights)
            singles = [batch_of_one(f, UNIT, 0.05, capacity=3) for f in locs]
            uploaded = [[] for _ in range(n_seeds)]
            for call in range(8):
                room = [40 - t for t in batch.n_observations]
                seeds = rng.choice(np.repeat(np.arange(n_seeds), room),
                                   size=min(int(rng.integers(1, 3 * n_seeds + 1)), sum(room)),
                                   replace=False)
                idx, vals = rng.integers(n, size=seeds.size), rng.normal(size=seeds.size)
                assert batch.observe(idx, vals, seeds) == {}
                for s, i, v in zip(seeds.tolist(), idx.tolist(), vals.tolist()):
                    singles[s].observe(i, v, 0)
                    uploaded[s].append(i)
                self.assert_singles(batch, singles)
            want = oracle.dense_residual_variance(batch, weights, every, uploaded)
            # within 1e-12 of the largest score; where every weighted target
            # has uploaded (n = 1 and 2) each score is 0 but for the
            # downdate's round-off squared, and the scale is the signal variance
            scale = np.abs(want).max() or UNIT.signal_variance
            np.testing.assert_allclose(batch.residual_variance(every), want,
                                       rtol=0, atol=1e-12 * scale)

    def test_failing_seed_takes_none_of_its_later_uploads(self):
        # seed 2's first upload of the call applies and its second fails at
        # every rung; like its own run, which fails there, it takes none of
        # its later uploads, while seeds 0, 1 and 3 apply all of theirs
        rng = np.random.default_rng(160)
        locs = rng.uniform(0, 5, size=(4, 20, 1))
        batch = IncrementalConditioner(locs, UNIT, 0.1)
        singles = [batch_of_one(f, UNIT, 0.1) for f in locs]
        for s in range(4):
            batch.observe(0, 0.3, s)
            singles[s].observe(0, 0.3, 0)
        seeds = [2, 1, 0, 3, 2, 1, 3, 2, 0]
        idx = [5, 6, 7, 8, 9, 10, 11, 12, 13]
        vals = rng.normal(size=9).tolist()
        probe = copy.deepcopy(singles[2])
        probe.observe(5, vals[0], 0)
        drop = singles[2].variance[0] - probe.variance[0]  # row * row of seed 2's first upload
        # target 9 left just inside the bounds after it: the next update overshoots
        batch.variance[2, 9] = singles[2].variance[0, 9] = drop[9] + 1e-3
        failed = batch.observe(idx, vals, seeds)
        assert singles[2].observe(5, vals[0], 0) == {}
        want = singles[2].observe(9, vals[4], 0)
        assert list(want) == [0] and "below round-off" in want[0]
        assert failed == {2: want[0]}
        for s, i, v in zip(seeds, idx, vals):
            if s != 2:
                singles[s].observe(i, v, 0)
        self.assert_singles(batch, singles)
        assert batch.n_observations == [3, 3, 2, 3]

    def test_das_batch_stacks_each_run_of_live_seeds(self, monkeypatch):
        # a DAS batch of 6 seeds loses its third (seed 3) on its third upload;
        # every later round observes seeds 0-1 and 3-5, two runs at one row
        # count, so no product takes the per-seed loop, whose 1-D operand the
        # spy on gp's matmul would see
        from oracle import by_seed
        from test_das import poisoning_observe

        class Spy:
            def __init__(self):
                self.ndims = []

            def __getattr__(self, name):
                return getattr(np, name)

            def matmul(self, a, b, **kwargs):
                self.ndims.append(np.ndim(a))
                return np.matmul(a, b, **kwargs)

        make = lambda rng: gen_2d(40, 0.1, rng)  # noqa: E731
        clean = by_seed(run_das_batches([1, 2, 4, 5, 6], make, "max-variance", 12, UNIT))
        spy = Spy()
        monkeypatch.setattr(fieldsense.gp, "np", spy)
        monkeypatch.setattr(IncrementalConditioner, "observe",
                            poisoning_observe(make(np.random.default_rng(3)).locations, at=3))
        stream = list(run_das_batches(range(1, 7), make, "max-variance", 12, UNIT))
        monkeypatch.undo()
        assert [(t, list(failed)) for _, _, t, _, failed in stream if failed] == [(3, [2])]
        assert spy.ndims and set(spy.ndims) == {3}
        runs = by_seed(stream)
        assert isinstance(runs.pop(3)[1], ValueError)
        for seed, (_, logs) in clean.items():
            assert [(l.selected, l.mse) for l in runs[seed][1]] == [
                (l.selected, l.mse) for l in logs]

    def test_rejects_bad_input_and_changes_nothing(self):
        batch = IncrementalConditioner(np.zeros((3, 4, 1)) + np.arange(4.0)[:, None], UNIT, 0.1)
        every = [0, 1, 2]
        for args, err, match in [
            (([1, 2], [0.5, 0.5], every), ValueError,
             "one target and value per seed, got 2, 2 and 3"),
            (([1, 2, 3], [0.5, 0.5], every), ValueError, "one target and value per seed"),
            ((1, 0.5, every), ValueError, "one target and value per seed, got 1, 1 and 3"),
            (([1, 4, 2], [0.5, 0.5, 0.5], every), IndexError, "target index 4 out of range"),
            (([1, -1, 2], [0.5, 0.5, 0.5], every), IndexError, "target index -1 out of range"),
            (([1, 2, 3], [0.5, np.nan, 0.5], every), ValueError, "observed value is not finite"),
            (([1, 2, 3], [0.5, 0.5, -np.inf], every), ValueError, "observed value is not finite"),
        ]:
            with pytest.raises(err, match=match):
                batch.observe(*args)
        assert batch.n_observations == [0, 0, 0]
        np.testing.assert_array_equal(batch._a, 0.0)
        np.testing.assert_array_equal(batch._c, 0.0)
        np.testing.assert_array_equal(batch.mean, 0.0)
        np.testing.assert_array_equal(batch.variance, 1.0)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_aloha_shaped_calls_match_one_conditioner_per_field(self, data):
        # An ALOHA round's call: a subset of seeds holding unequal row counts,
        # 1-4 uploads each, the uploads in shuffled order; one seed's first
        # upload may need pivot jitter and another's may fail.  Each field's
        # own conditioner takes the same uploads one at a time, in order, and
        # none of a seed's after the one that fails.
        n_seeds = data.draw(st.integers(1, 8), label="seeds")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng"))
        n, noise = 12, 0.05
        locs = rng.uniform(0, 5, size=(n_seeds, n, 2))
        batch = IncrementalConditioner(locs, UNIT, noise, capacity=2)  # it grows
        singles = [batch_of_one(f, UNIT, noise) for f in locs]
        left = [rng.permutation(n).tolist() for _ in range(n_seeds)]
        for s in range(n_seeds):  # earlier uploads, as many as the seed drew
            for _ in range(data.draw(st.integers(0, 3), label=f"earlier {s}")):
                i, v = left[s].pop(), float(rng.normal())
                assert batch.observe([i], [v], [s]) == singles[s].observe([i], [v], [0]) == {}
        for _ in range(data.draw(st.integers(1, 3), label="calls")):
            subset = data.draw(st.sets(st.integers(0, n_seeds - 1), min_size=1), label="subset")
            uploads = [(s, left[s].pop(), float(rng.normal())) for s in sorted(subset)
                       for _ in range(data.draw(st.integers(1, 4))) if left[s]]
            uploads = data.draw(st.permutations(uploads), label="order")
            if not uploads:
                continue
            firsts = list({s: i for s, i, _ in reversed(uploads)}.items())  # seed order here
            jittered, failing = (data.draw(st.sampled_from([None, *firsts])) for _ in "jf")
            if jittered:
                # a target left 5e-10 short of the plain update: it needs jitter
                s, i = jittered
                probe = copy.deepcopy(singles[s])
                probe.observe([i], [0.0], [0])
                drop = singles[s].variance[0] - probe.variance[0]
                drop[i] = -1.0
                j = int(np.argmax(drop))
                batch.variance[s, j] = singles[s].variance[0, j] = drop[j] - 5e-10
            if failing and failing != jittered:
                # an understated variance at the target overshoots any update
                s, i = failing
                batch.variance[s, i] = singles[s].variance[0, i] = 0.0
            seeds, idx, vals = (np.array(col) for col in zip(*uploads))
            got = batch.observe(idx, vals, seeds)
            want = {}
            for s, i, v in uploads:
                if s not in want:
                    want.update({s: msg for msg in singles[s].observe([i], [v], [0]).values()})
            assert got == want
            if failing and failing != jittered:
                assert failing[0] in got
            TestFullSlot.assert_singles(batch, singles)


class TestUnitScores:
    """Unit (one-hot) weight rows on k targets score through the one path from
    those targets' k kernel rows, bit for bit as the dense rows score through
    each seed's (n, n) prior (tests/oracle.py), also once their targets are
    observed and their rows zeroed."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("n", [3, 40, 300])
    def test_unit_scores_equal_the_dense_rows_bitwise(self, n, d):
        rng = np.random.default_rng(130 + n + d)
        for n_seeds in (1, 2, 4):
            k = min(5, n - 1)
            locs = rng.uniform(0, 5, size=(n_seeds, n, d))
            order = [rng.permutation(n - k) for _ in range(n_seeds)]
            run = np.arange(n - k, n)  # targets after the sensors, as virtual points are
            scattered = np.sort(rng.choice(n, size=k, replace=False))[::-1]
            # one conditioner per set of rows, so each keeps and downdates its products
            rows = {"run": np.eye(n)[run], "scattered": np.eye(n)[scattered]}
            conds = {key: IncrementalConditioner(locs, UNIT, 0.05, capacity=36, weights=w)
                     for key, w in rows.items()}
            for step in range(min(36, n - k)):
                rem = np.sort([o[step:] for o in order], axis=1)
                everywhere = np.tile(np.arange(n), (n_seeds, 1))  # targets among them
                uploaded = [o[:step] for o in order]
                # up to 35 rows: a strided operand's bits differ mostly past 20
                checks = (("run", rem), ("scattered", rem), ("scattered", everywhere))
                for key, cand in checks if step in (0, 1, 7, 22, 29, 35) else ():
                    got = conds[key].residual_variance(cand)
                    want = oracle.dense_residual_variance(conds[key], rows[key], cand, uploaded)
                    np.testing.assert_array_equal(got, want)
                picks, vals = np.array([o[step] for o in order]), rng.normal(size=n_seeds)
                for cond in conds.values():
                    cond.observe(picks, vals, np.arange(n_seeds))

    def test_one_field_and_the_dense_path_agree(self):
        # target 4 is observed, so its row is zeroed
        rng = np.random.default_rng(140)
        pts = rng.uniform(0, 5, size=(30, 2))
        rows = np.eye(30)[[4, 26, 27]]
        cond = batch_of_one(pts, UNIT, 0.1, weights=rows)
        for i in (4, 17, 9):
            cond.observe(i, float(rng.normal()), 0)
        cand = np.array([0, 1, 2, 5, 6, 25, 29])
        got = cond.residual_variance(cand[None])[0]
        assert got.shape == (3, cand.size)
        np.testing.assert_array_equal(
            got, oracle.dense_residual_variance(cond, rows, cand[None], [[4, 17, 9]])[0])
        np.testing.assert_array_equal(got[0], 0.0)


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
        got = _sq_exp(rows.T[:, :, None], cols.T[:, None, :], self.PARAMS)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(gram(rows, cols, self.PARAMS), want)
        for i, j in ((0, 0), (3, 7), (39, 32)):
            assert kernel_value(rows[i], cols[j], self.PARAMS) == want[i, j]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_observe_row_equals_gram_row_bitwise(self, d, monkeypatch):
        rng = np.random.default_rng(20 + d)
        pts = self.points(rng, 50, d, near=True)
        rows = []

        def recording(a, b, params):
            out = _sq_exp(a, b, params)
            rows.append(out)
            return out

        monkeypatch.setattr(fieldsense.gp, "_sq_exp", recording)
        cond = batch_of_one(pts, self.PARAMS, 0.05)
        order = [int(i) for i in rng.permutation(50)[:12]]
        for idx in order:
            cond.observe(idx, float(rng.normal()), 0)
        full = oracle.sq_exp_reduced(pts[:, None, :] - pts[None, :, :], self.PARAMS)
        assert len(rows) == len(order)
        for idx, row in zip(order, rows):  # a one-seed slot's (1, n) rows
            np.testing.assert_array_equal(row, full[[idx]])
