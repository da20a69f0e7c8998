"""Round loop: estimates, selection rules vs brute force, run invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fieldsense.gp
from fieldsense.das import POLICIES, quantize, run_das, run_das_batches
from fieldsense.fields import SensorField, gen_1d, gen_2d
from fieldsense.gp import IncrementalConditioner, KernelParams, gram

import oracle
from test_gp import naive_posterior

UNIT = KernelParams(1.0, 1.0)

# Largest gap between the library's application scores and the dense
# oracle's, relative to each application's largest score in that round.
SCORE_RTOL = 1e-10


def make_field(locations, noise=0.1, rng=None, values=None):
    locations = np.asarray(locations, dtype=float)
    if locations.ndim == 1:
        locations = locations.reshape(-1, 1)
    if values is None:
        values = (rng or np.random.default_rng(0)).normal(size=len(locations))
    return SensorField(locations, np.asarray(values, dtype=float),
                       np.asarray(values, dtype=float), noise)


def random_small_field(rng, max_L=12):
    L = int(rng.integers(3, max_L + 1))
    d = int(rng.integers(1, 3))
    locs = rng.uniform(0, 6, size=(L, d))
    vals = rng.normal(size=L)
    noise = float(rng.uniform(1e-3, 0.5))
    return SensorField(locs, vals, vals + rng.normal(0, math.sqrt(noise), L), noise)


def uploads_before(logs):
    """Each round's log, with the sensors uploaded before that round in upload order."""
    picks = [log.selected for log in logs]
    return [(log, picks[:i]) for i, log in enumerate(logs)]


def brute_force_min_next_mse(field, uploaded, params):
    """Next-round MSE per candidate, recomputed with the naive solver.

    ``uploaded`` lists the sensors that have reported, in upload order; the
    others, ascending, are the candidates.  After candidate l uploads, the
    estimate error it contributed is gone and the remaining terms are the
    other sensors' current conditional variances, so next-MSE(l) = sum of
    per-sensor variances minus l's own (each variance obtained one sensor at
    a time via the explicit-inverse oracle).
    """
    rem = oracle.remaining(field, uploaded)
    variances = {}
    for cand in rem:
        _, cov = naive_posterior(
            field.locations[uploaded], field.measurements[uploaded],
            field.locations[[cand]], params, field.noise_variance,
        )
        # shared tie rule: scores live on a 1e-12 grid
        variances[cand] = round(float(cov[0, 0]) * 1e12) / 1e12
    total = sum(variances.values())
    best_idx, best_mse = None, None
    for cand in rem:  # ascending, so ties keep the lowest index
        mse = total - variances[cand]
        if best_mse is None or mse < best_mse:
            best_idx, best_mse = cand, mse
    return best_idx


def brute_force_virtual_pick(field, uploaded, virtual):
    """The candidate whose upload leaves the least posterior variance summed
    over ``virtual``, recomputed with the naive solver; ties within 1e-13
    keep the lowest index."""
    best, best_trace = None, None
    for cand in oracle.remaining(field, uploaded):
        obs = uploaded + [cand]
        _, cov = naive_posterior(
            field.locations[obs], np.zeros(len(obs)), virtual, UNIT, field.noise_variance,
        )
        tr = float(np.trace(cov))
        if best_trace is None or tr < best_trace - 1e-13:
            best, best_trace = cand, tr
    return best


def by_seed(batch_rounds):
    """The batch stream of run_das_batches or run_aloha_batches as
    {seed: (field, [log, ...] or the error)}: each seed's logs, built by its
    batch rounds' ``logs()``, until its row is reported failed, and then the
    ``ValueError`` its own run would raise."""
    out = {}
    for batch, fields, t, rnd, failed in batch_rounds:
        for row, (seed, field, log) in enumerate(zip(batch, fields, rnd.logs())):
            _, logs = out.setdefault(seed, (field, []))
            if row in failed:
                out[seed] = (field, ValueError(failed[row]))
            elif isinstance(logs, list):
                assert t == len(logs) + 1
                logs.append(log)
    return out


def poisoning_observe(locations, at):
    """IncrementalConditioner.observe that, on the ``at``-th upload of the
    field at ``locations`` to each conditioner, counted in call order, first
    zeroes that field's variance at the uploaded target, so the real update
    fails for that field alone.  A call holding uploads before that one
    applies them first, in a call of their own, so the zeroed variance meets
    that upload and no earlier one."""
    real = fieldsense.gp.IncrementalConditioner.observe
    calls = {}  # id -> [conditioner, uploads]; holding it keeps its id unused

    def observe(self, index, value, seed):
        seeds, idx, vals = np.atleast_1d(seed), np.atleast_1d(index), np.atleast_1d(value)
        for u, (i, s) in enumerate(zip(idx.tolist(), seeds.tolist())):
            if np.array_equal(self.target_locations[s], locations):
                count = calls.setdefault(id(self), [self, 0])
                count[1] += 1
                if count[1] == at:  # the uploads before this one first, then the poison
                    head = real(self, idx[:u], vals[:u], seeds[:u])
                    self.variance[s, i] = 0.0
                    rest = [r for r in range(u, seeds.size) if seeds[r] not in head]
                    return {**head, **real(self, idx[rest], vals[rest], seeds[rest])}
        return real(self, index, value, seed)

    return observe


class TestEstimate:
    """The field estimates ``run_das`` logs, round by round."""

    def test_prior_mse_is_L(self):
        # sensors 100 length scales apart: one upload leaves every other
        # sensor at its prior variance, 1 each
        field = make_field(np.arange(7) * 100.0)
        est = run_das(field, "max-variance", 1, UNIT, log_estimates=True)[0].estimate
        assert est.mse == pytest.approx(6.0, abs=1e-12)
        np.testing.assert_allclose(est.per_sensor_variance, [0.0] + [1.0] * 6)

    def test_all_uploaded(self):
        field = make_field([0.0, 1.0, 2.0])
        est = run_das(field, "max-variance", 3, UNIT, log_estimates=True)[-1].estimate
        np.testing.assert_array_equal(est.values, field.measurements)
        assert est.mse == 0.0

    def test_mse_equals_trace_of_joint_covariance(self):
        rng = np.random.default_rng(7)
        field = make_field(rng.uniform(0, 5, 5), rng=rng)
        logs = run_das(field, "random", 5, UNIT, rng=rng, log_estimates=True)
        for log, before in uploads_before(logs):
            uploaded = before + [log.selected]
            rest = oracle.remaining(field, uploaded)
            if not rest:
                assert log.estimate.mse == 0.0
                continue
            post = oracle.posterior(
                field.locations[uploaded], field.measurements[uploaded],
                field.locations[rest], UNIT, field.noise_variance,
            )
            assert log.estimate.mse == pytest.approx(np.trace(post.covariance), abs=1e-9)

    def test_uploaded_entries_bitwise(self):
        rng = np.random.default_rng(8)
        field = make_field(rng.uniform(0, 5, 9), rng=rng)
        logs = run_das(field, "random", 9, UNIT, rng=rng, log_estimates=True)
        for log, before in uploads_before(logs):
            for i in before + [log.selected]:
                assert log.estimate.values[i] == field.measurements[i]
                assert log.estimate.per_sensor_variance[i] == 0.0

    def test_mse_is_sum_of_variances(self):
        rng = np.random.default_rng(9)
        field = make_field(rng.uniform(0, 5, 8), rng=rng)
        for log in run_das(field, "random", 8, UNIT, rng=rng, log_estimates=True):
            assert log.estimate.mse == np.sum(log.estimate.per_sensor_variance)


class TestSelectMaxVariance:
    def test_prior_tie_breaks_low(self):
        field = make_field([0.0, 1.0, 2.0])
        assert run_das(field, "max-variance", 1, UNIT)[0].selected == 0

    def test_farthest_sensor_wins(self):
        # sensor 0 wins the prior tie; then 2, far from it, beats 1 beside it
        field = make_field([0.0, 0.1, 5.0])
        assert [l.selected for l in run_das(field, "max-variance", 2, UNIT)] == [0, 2]

    def test_equals_brute_force_next_mse(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            field = random_small_field(rng)
            logs = run_das(field, "max-variance", field.n_sensors - 1, UNIT)
            for log, uploaded in uploads_before(logs):
                assert log.selected == brute_force_min_next_mse(field, uploaded, UNIT)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_value_independence(self, seed):
        rng = np.random.default_rng(seed)
        field = random_small_field(rng)
        other = SensorField(
            field.locations, field.true_means,
            rng.uniform(-100, 100, field.n_sensors), field.noise_variance,
        )
        picks = [[l.selected for l in run_das(f, "max-variance", f.n_sensors, UNIT)]
                 for f in (field, other)]
        assert picks[0] == picks[1]

    def test_empty_remaining_rejected(self):
        with pytest.raises(ValueError, match="rounds must be in"):
            run_das(make_field([0.0]), "max-variance", 2, UNIT)


class TestSelectRandom:
    def test_singleton(self):
        # the last round picks the one sensor left
        logs = run_das(make_field(np.arange(8.0)), "random", 8, UNIT,
                       rng=np.random.default_rng(0))
        assert sorted(l.selected for l in logs) == list(range(8))

    def test_uniform_over_remaining(self):
        # the first pick is uniform over 5 sensors, the second over the 4 left
        n = 20_000
        field = make_field(np.arange(5.0))
        picks = np.zeros((2, n), dtype=int)
        for batch, _, t, rnd, _ in run_das_batches(range(n), lambda rng: field, "random",
                                                   2, UNIT):
            picks[t - 1, batch] = rnd.picks
        first = np.bincount(picks[0], minlength=5) / n
        np.testing.assert_allclose(first, 0.2, atol=3 * math.sqrt(0.2 * 0.8 / n))
        offset = np.bincount((picks[1] - picks[0]) % 5, minlength=5) / n
        assert offset[0] == 0
        np.testing.assert_allclose(offset[1:], 0.25, atol=3 * math.sqrt(0.25 * 0.75 / n))

    def test_deterministic_given_seed(self):
        field = make_field(np.arange(10.0))
        picks = {tuple(l.selected for l in run_das(field, "random", 10, UNIT,
                                                   rng=np.random.default_rng(99)))
                 for _ in range(5)}
        assert len(picks) == 1

    def test_empty_remaining_rejected(self):
        with pytest.raises(ValueError, match="rounds must be in"):
            run_das(make_field([0.0]), "random", 2, UNIT, rng=np.random.default_rng(0))


class TestSelectVirtualTarget:
    def test_coincident_virtual_location(self):
        field = make_field([0.0, 2.0, 4.0])
        assert run_das(field, "virtual", 1, UNIT, virtual_locs=[(2.0,)])[0].selected == 1

    def test_nearest_of_two(self):
        field = make_field([0.4, 5.0])
        assert run_das(field, "virtual", 1, UNIT, virtual_locs=[(0.5,)])[0].selected == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            field = random_small_field(rng, max_L=10)
            n_virtual = int(rng.integers(1, 4))
            virtual = rng.uniform(0, 6, size=(n_virtual, field.dim))
            logs = run_das(field, "virtual", field.n_sensors - 1, UNIT, virtual_locs=virtual)
            for log, uploaded in uploads_before(logs):
                assert log.selected == brute_force_virtual_pick(field, uploaded, virtual)

    def test_rejects_empty(self):
        field = make_field([0.0, 1.0])
        with pytest.raises(ValueError, match="virtual location set is empty"):
            run_das(field, "virtual", 1, UNIT, virtual_locs=[])
        with pytest.raises(ValueError, match="rounds must be in"):
            run_das(field, "virtual", 3, UNIT, virtual_locs=[(0.5,)])


class TestRunDas:
    def test_full_sweep_reaches_zero_mse(self):
        field = make_field(np.linspace(0, 9, 8))
        logs = run_das(field, "max-variance", 8, UNIT)
        assert logs[-1].mse == pytest.approx(0.0, abs=1e-9)
        assert sorted(l.selected for l in logs) == list(range(8))

    def test_deterministic_logs(self):
        field = gen_1d(30, 0.05, np.random.default_rng(3))
        a = run_das(field, "random", 15, UNIT, rng=np.random.default_rng(5))
        b = run_das(field, "random", 15, UNIT, rng=np.random.default_rng(5))
        assert [(l.round, l.selected, l.mse) for l in a] == \
            [(l.round, l.selected, l.mse) for l in b]

    @pytest.mark.parametrize("policy", ["max-variance", "random"])
    def test_mse_non_increasing(self, policy):
        field = gen_1d(25, 0.05, np.random.default_rng(4))
        logs = run_das(field, policy, 25, UNIT, rng=np.random.default_rng(4))
        mses = [l.mse for l in logs]
        assert all(b <= a + 1e-9 for a, b in zip(mses, mses[1:]))

    def test_incremental_matches_baseline(self):
        field = gen_1d(22, 0.05, np.random.default_rng(6))
        fast = run_das(field, "max-variance", 22, UNIT)
        slow = oracle.run_das(field, "max-variance", 22, UNIT)
        assert [l.selected for l in fast] == [l.selected for l in slow]
        np.testing.assert_allclose(
            [l.mse for l in fast], [l.mse for l in slow], atol=1e-8
        )

    def test_incremental_matches_baseline_random(self):
        field = gen_1d(22, 0.05, np.random.default_rng(6))
        fast = run_das(field, "random", 22, UNIT, rng=np.random.default_rng(6))
        slow = oracle.run_das(field, "random", 22, UNIT, rng=np.random.default_rng(6))
        assert [l.selected for l in fast] == [l.selected for l in slow]
        np.testing.assert_allclose(
            [l.mse for l in fast], [l.mse for l in slow], atol=1e-8
        )

    def test_incremental_matches_baseline_virtual(self):
        field = gen_1d(15, 0.05, np.random.default_rng(7))
        virtual = [(2.5,), (7.5,)]
        fast = run_das(field, "virtual", 10, UNIT, virtual_locs=virtual)
        slow = oracle.run_das(field, "virtual", 10, UNIT, virtual_locs=virtual)
        assert [l.selected for l in fast] == [l.selected for l in slow]

    def test_long_run_app_weighted_matches_oracle(self):
        # mixed applications (field mean, one sensor, random weights) with
        # random betas, 30 of 60 sensors
        rng = np.random.default_rng(11)
        field = gen_1d(60, 0.1, rng)
        weights = np.vstack([np.full(60, 1.0 / 60), np.eye(60)[17], rng.normal(size=60)])
        apps = (weights, rng.uniform(0.1, 3.0, size=3))
        fast = run_das(field, "app-weighted", 30, UNIT, apps=apps)
        slow = oracle.run_das(field, "app-weighted", 30, UNIT, apps=apps)
        assert [l.selected for l in fast] == [l.selected for l in slow]
        np.testing.assert_allclose(
            [l.mse for l in fast], [l.mse for l in slow], atol=1e-8
        )

    @pytest.mark.parametrize("make,L", [(gen_1d, 1000), (gen_2d, 2000)], ids=["1d-L1000", "2d-L2000"])
    def test_long_run_app_weighted_scores_match_the_dense_oracle(self, monkeypatch, make, L):
        # every round of a 150-round run: the scores, kept as the rows'
        # products with the prior downdated per upload, against the zeroed
        # rows multiplied through the whole prior, within SCORE_RTOL of each
        # application's largest score; and the pick is the oracle's
        rng = np.random.default_rng(14)
        field = make(L, 0.1, rng)
        weights = np.vstack([np.full(L, 1.0 / L), np.eye(L)[7], np.eye(L)[L // 2],
                             rng.normal(size=L)])
        betas = np.array([1.0, 2.0, 1.0, 0.5])
        locs = field.locations
        prior = np.vstack([gram(locs[r : r + 250], locs, UNIT) for r in range(0, L, 250)])[None]
        score = IncrementalConditioner.residual_variance
        gaps = []

        def checked(cond, rem):
            got = score(cond, rem)
            uploaded = [np.setdiff1d(np.arange(L), rem[0])]
            want = oracle.dense_residual_variance(cond, weights, rem, uploaded, prior)
            # an application whose one sensor has uploaded scores 0 on both sides
            scale = np.maximum(np.abs(want).max(axis=-1, keepdims=True), np.finfo(float).tiny)
            gaps.append(float(np.max(np.abs(got - want) / scale)))
            assert np.argmin(quantize(betas @ got)) == np.argmin(quantize(betas @ want))
            return got

        monkeypatch.setattr(IncrementalConditioner, "residual_variance", checked)
        run_das(field, "app-weighted", 150, UNIT, apps=(weights, betas))
        assert len(gaps) == 150
        print(f"{make.__name__} L={L}: largest relative score gap {max(gaps):.2g}")
        assert max(gaps) < SCORE_RTOL

    def test_long_run_virtual_matches_oracle(self):
        field = gen_1d(120, 0.1, np.random.default_rng(12))
        virtual = [(0.5,), (2.5,), (5.0,), (7.5,), (9.5,)]
        fast = run_das(field, "virtual", 60, UNIT, virtual_locs=virtual)
        slow = oracle.run_das(field, "virtual", 60, UNIT, virtual_locs=virtual)
        assert [l.selected for l in fast] == [l.selected for l in slow]
        np.testing.assert_allclose(
            [l.mse for l in fast], [l.mse for l in slow], atol=1e-8
        )

    @pytest.mark.parametrize("make,L,rounds", [(gen_1d, 500, 500), (gen_2d, 2000, 500)],
                             ids=["1d-L500-full", "2d-L2000-500"])
    def test_long_run_estimates_match_oracle(self, make, L, rounds):
        # drift of the incremental estimate against a batch solve of the same
        # uploads, every 50 rounds of a long max-variance run
        field = make(L, 0.1, np.random.default_rng(13))
        logs = run_das(field, "max-variance", rounds, UNIT, log_estimates=True)
        for log, before in uploads_before(logs):
            if log.round % 50:
                continue
            want = oracle.estimate(field, before + [log.selected], UNIT)
            np.testing.assert_allclose(log.estimate.values, want.values, atol=1e-8)
            np.testing.assert_allclose(log.estimate.per_sensor_variance,
                                       want.per_sensor_variance, atol=1e-8)
            assert log.mse == pytest.approx(want.mse, abs=1e-8)

    def test_active_beats_random_at_round_20(self):
        # 1-D benchmark field, sigma^2 = 0.01: active ordering should hold a
        # clear MSE lead by round 20, averaged over 100 location draws.
        das_mse = rand_mse = 0.0
        for seed in range(1, 101):
            field = gen_1d(100, 0.01, np.random.default_rng(seed))
            das_mse += run_das(field, "max-variance", 20, UNIT)[-1].mse
            rand_mse += run_das(
                field, "random", 20, UNIT, rng=np.random.default_rng(seed)
            )[-1].mse
        assert das_mse < rand_mse

    def test_estimates_logged_on_request(self):
        field = make_field([0.0, 1.0, 2.0, 3.0])
        logs = run_das(field, "max-variance", 2, UNIT, log_estimates=True)
        assert logs[0].estimate is not None
        assert logs[0].estimate.values.shape == (4,)
        bare = run_das(field, "max-variance", 2, UNIT)
        assert bare[0].estimate is None

    def test_uploaded_entries_bitwise_exact(self):
        rng = np.random.default_rng(8)
        field = gen_1d(12, 0.1, rng)
        logs = run_das(field, "max-variance", 12, UNIT, log_estimates=True)
        uploaded = []
        for log in logs:
            uploaded.append(log.selected)
            for i in uploaded:
                assert log.estimate.values[i] == field.measurements[i]

    def test_rejects_bad_rounds_and_policy(self):
        field = make_field([0.0, 1.0])
        with pytest.raises(ValueError):
            run_das(field, "max-variance", 3, UNIT)
        with pytest.raises(ValueError):
            run_das(field, "maximal", 1, UNIT)
        with pytest.raises(ValueError, match="needs virtual_locs"):
            run_das(field, "virtual", 1, UNIT)
        with pytest.raises(ValueError, match="app-weighted policy needs apps"):
            run_das(field, "app-weighted", 1, UNIT)
        with pytest.raises(ValueError, match="unknown policy"):
            run_das(field, lambda f, s, p, r: max(s.remaining), 1, UNIT)


def assert_das_logs_equal(got, want):
    """Two runs' round logs, equal bit for bit."""
    assert [(l.round, l.selected, l.mse) for l in got] == \
        [(l.round, l.selected, l.mse) for l in want]
    for g, w in zip(got, want):
        assert (g.estimate is None) == (w.estimate is None)
        if g.estimate is not None:
            np.testing.assert_array_equal(g.estimate.values, w.estimate.values)
            np.testing.assert_array_equal(g.estimate.per_sensor_variance,
                                          w.estimate.per_sensor_variance)


def field_1d(L):
    return lambda rng: gen_1d(L, 0.1, rng)


class TestRunDasSeeds:
    """A seed batch plays every seed as its own run_das would, bit for bit,
    whatever its batch-mates do.  The scored policies and the holdout
    estimates are checked through the CLI records in
    tests/test_experiments.py::TestRunExperiment::test_das_seed_batches_partition."""

    @given(seed=st.integers(0, 2**32 - 1), L=st.integers(1, 15), n_seeds=st.integers(1, 12),
           d=st.integers(1, 2), policy=st.sampled_from(POLICIES), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_each_seed_equals_its_own_run(self, seed, L, n_seeds, d, policy, data):
        # seeds out of order, one to two batches, down to one sensor and to
        # the last sensor of the field, with the estimates logged
        rounds = data.draw(st.integers(1, L))
        base = np.random.default_rng(seed)
        virtual = base.uniform(0, 6, size=(int(base.integers(1, 4)), d))
        apps = (base.normal(size=(2, L)), base.uniform(0.1, 2.0, size=2))

        def make(rng):
            locs, vals = rng.uniform(0, 6, size=(L, d)), rng.normal(size=L)
            return SensorField(locs, vals, vals + rng.normal(0, 0.2, L), 0.05)

        seeds = [int(s) for s in base.choice(10_000, size=n_seeds, replace=False)]
        kwargs = dict(virtual_locs=virtual, log_estimates=True, apps=apps)
        runs = by_seed(run_das_batches(seeds, make, policy, rounds, UNIT, **kwargs))
        assert list(runs) == seeds
        for s, (field, logs) in runs.items():
            rng = np.random.default_rng(s)
            assert_das_logs_equal(logs, run_das(make(rng), policy, rounds, UNIT, rng=rng, **kwargs))

    def test_failing_seed_leaves_its_batch_alone(self, monkeypatch):
        make = field_1d(30)
        doomed = make(np.random.default_rng(5)).locations
        poisoned = fieldsense.gp.IncrementalConditioner
        monkeypatch.setattr(poisoned, "observe", poisoning_observe(doomed, at=3))
        with pytest.raises(ValueError, match="below round-off") as alone:
            run_das(make(np.random.default_rng(5)), "max-variance", 20, UNIT)
        monkeypatch.setattr(poisoned, "observe", poisoning_observe(doomed, at=3))
        stream = list(run_das_batches(range(1, 9), make, "max-variance", 20, UNIT))
        # one row is reported failed, seed 5's, on its third upload, with its
        # own run's message
        assert [(batch[row], t, message) for batch, _, t, _, failed in stream
                for row, message in failed.items()] == [(5, 3, str(alone.value))]
        runs = by_seed(stream)
        field, error = runs.pop(5)
        assert isinstance(error, ValueError) and str(error) == str(alone.value)
        monkeypatch.undo()
        clean = by_seed(run_das_batches([1, 2, 3, 4, 6, 7, 8], make, "max-variance", 20, UNIT))
        assert list(runs) == list(clean)
        for seed in runs:
            assert_das_logs_equal(runs[seed][1], clean[seed][1])

    # A seed's worst case is 8 * n * (rounds + 2 + r) bytes of 4 MB, n its
    # targets (the sensors, and the 2 virtual points of the virtual policy) and
    # r the rows it scores from: for the scored policies the weight rows and
    # their products with the prior, two per application (one here) or virtual
    # point; none for max-variance.
    @pytest.mark.parametrize("L,rounds,policy,sizes", [
        (30, 30, "max-variance", [20]),  # 7.7 kB a seed: all 20 seeds at once
        (60, 30, "virtual", [20]),  # 18 kB a seed
        (3000, 200, "max-variance", [1] * 20),  # 4.8 MB of factor a seed
        (500, 12, "app-weighted", [20]),  # 64 kB a seed; a prior would make it 2 MB
        (300, 220, "max-variance", [6, 7, 7]),  # 533 kB a seed: 7 at most
        (240, 30, "virtual", [20]),  # 69 kB a seed; a prior would make it 530 kB
        (2000, 30, "virtual", [6, 7, 7]),  # 577 kB a seed
        (1000, 66, "app-weighted", [6, 7, 7]),  # 560 kB a seed
    ])
    def test_batches_follow_the_byte_budget(self, monkeypatch, L, rounds, policy, sizes):
        made = []
        real = fieldsense.gp.IncrementalConditioner.__init__

        def init(self, target_locs, *args, **kwargs):
            made.append(np.shape(target_locs)[0])
            real(self, target_locs, *args, **kwargs)

        monkeypatch.setattr(fieldsense.gp.IncrementalConditioner, "__init__", init)
        # the batches are what counts here, not the posterior
        monkeypatch.setattr(fieldsense.gp.IncrementalConditioner, "observe",
                            lambda self, index, value, seed: {})
        apps = ([np.full(L, 1.0 / L)], [1.0])
        for _ in run_das_batches(range(1, 21), field_1d(L), policy, rounds, UNIT,
                                 virtual_locs=[(2.0,), (6.0,)], apps=apps):
            pass
        assert made == sizes

    def test_rejects_a_batch_of_unlike_fields(self):
        sizes = iter([3, 2])
        make = lambda rng: make_field(np.arange(float(next(sizes))))  # noqa: E731
        with pytest.raises(ValueError, match="one size"):
            list(run_das_batches([1, 2], make, "max-variance", 2, UNIT))
