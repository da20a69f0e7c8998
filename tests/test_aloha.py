"""Contention uploading: closed forms, Monte Carlo cross-checks, dual control."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fieldsense.aloha
import fieldsense.gp
from fieldsense.aloha import (
    MODES,
    AlohaConfig,
    dual_ascent_step,
    equal_upload_probability,
    expected_throughput,
    per_sensor_success_probability,
    run_aloha_batches,
    sleep_adjusted_q,
    sse_lower_bound,
    upload_probabilities,
    _alone,
    _play_round,
)
from fieldsense.fields import gen_random_sinusoid
from fieldsense.gp import IncrementalConditioner, KernelParams

import oracle
from oracle import aloha_logs, by_seed
from test_das import make_field, poisoning_observe

UNIT = KernelParams(1.0, 1.0)


def sinusoid(L):
    return lambda rng: gen_random_sinusoid(L, 10, 0.1, rng)


def contention_rounds(p, channels, n, rng):
    """``n`` contention rounds among ``len(p)`` sensors, drawn as one batch
    with a row per round: each sensor transmits with its probability in
    ``p`` and draws a channel, and the round loop's rule, ``_alone``, keeps
    the transmitters alone on theirs.  Returns the (n, len(p)) successes."""
    shape = (n, len(p))
    active = rng.random(shape) < p
    return _alone(active, rng.integers(0, channels, size=shape), channels)


def fresh_batch(fields, uploaded=()):
    """A batch's round state over ``fields``, with ``uploaded`` observed on
    every seed: its conditioner and its (S, n) upload mask."""
    cond = IncrementalConditioner(np.stack([f.locations for f in fields]), UNIT,
                                  fields[0].noise_variance)
    mask = np.zeros((len(fields), fields[0].n_sensors), dtype=bool)
    for s, field in enumerate(fields):
        for i in uploaded:
            cond.observe(i, float(field.measurements[i]), s)
            mask[s, i] = True
    return cond, mask


def play_round(cands, meas, mask, psi, cfg, cond, rngs):
    """The batch round on each seed's candidate list, the lists as the rows of
    one array, shorter rows padded with sensor 0."""
    lens = [len(c) for c in cands]
    padded = np.zeros((len(cands), max(lens)), dtype=int)
    for row, c in zip(padded, cands):
        row[: len(c)] = c
    return _play_round(padded, lens, meas, mask, psi, cfg, cond, rngs)


def one_round(field, cands, cfg, rng, uploaded=(), psi=0.0):
    """The batch round on a batch of one: ``field`` with ``uploaded`` observed
    plays ``cands``; returns the round's log, the mask and psi after it."""
    cond, mask = fresh_batch([field], uploaded)
    psi = np.array([psi])
    rnd, failed = play_round([cands], field.measurements[None], mask, psi, cfg, cond, [rng])
    assert not failed
    (log,) = oracle.rows(rnd)
    return log, mask[0], float(psi[0])


class TestClosedForms:
    def test_equal_upload_probability(self):
        assert equal_upload_probability(AlohaConfig(3, 10)) == pytest.approx(0.3)
        assert equal_upload_probability(AlohaConfig(4, 4)) == 1.0
        assert equal_upload_probability(AlohaConfig(5, 3)) == 1.0  # clamped

    def test_expected_throughput_value(self):
        cfg = AlohaConfig(3, 10)
        assert expected_throughput(0.3, cfg) == pytest.approx(3 * 0.9**9, rel=1e-12)
        assert expected_throughput(0.0, cfg) == 0.0
        assert expected_throughput(1.0, AlohaConfig(1, 1)) == 1.0

    def test_throughput_maximum_at_b_over_q(self):
        cfg = AlohaConfig(3, 10)
        best = expected_throughput(0.3, cfg)
        for p in np.linspace(0.01, 1.0, 60):
            assert expected_throughput(float(p), cfg) <= best + 1e-12

    def test_sleep_adjusted_q(self):
        assert sleep_adjusted_q(3, 0.0) == 3
        assert sleep_adjusted_q(3, 0.5) == 6
        assert sleep_adjusted_q(4, 0.2) == 5
        with pytest.raises(ValueError):
            sleep_adjusted_q(3, 1.0)

    def test_sse_lower_bound(self):
        assert sse_lower_bound(0.1, 10, 3) == pytest.approx(
            0.1 * (10 - 3 / math.e), rel=1e-12
        )
        assert sse_lower_bound(0.0, 10, 3) == 0.0

    def test_sse_lower_bound_clamps_with_warning(self):
        with pytest.warns(UserWarning, match="clamped"):
            assert sse_lower_bound(0.1, 10, 30) == 0.0


class TestPerSensorSuccessProbability:
    def test_single_sensor(self):
        np.testing.assert_allclose(per_sensor_success_probability([0.7], 3), [0.7])

    def test_certain_collision(self):
        np.testing.assert_allclose(per_sensor_success_probability([1.0, 1.0], 1), [0.0, 0.0])

    def test_homogeneous_formula(self):
        s = per_sensor_success_probability([0.3] * 10, 3)
        np.testing.assert_allclose(s, 0.3 * 0.9**9, rtol=1e-12)

    def test_never_exceeds_own_probability(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0, 1, 8)
        s = per_sensor_success_probability(p, 4)
        assert np.all(s <= p + 1e-15)

    def test_monte_carlo_heterogeneous(self):
        rng = np.random.default_rng(1)
        p = np.array([0.9, 0.5, 0.3, 0.3, 0.1, 0.7])
        B = 3
        n = 30_000
        hits = contention_rounds(p, B, n, rng).sum(axis=0)
        want = per_sensor_success_probability(p, B)
        se = np.sqrt(want * (1 - want) / n)
        assert np.all(np.abs(hits / n - want) < 3 * se)


class TestUploadProbabilityFromError:
    def test_zero_error_never_uploads(self):
        assert upload_probabilities([0.0], -5.0)[0] == 0.0

    def test_lower_clamp_boundary(self):
        psi = 0.7
        assert upload_probabilities([math.exp(psi)], psi)[0] == pytest.approx(0.0, abs=1e-14)

    def test_upper_clamp_boundary(self):
        psi = -0.3
        e_sq = math.exp(psi + 1 / math.e)
        assert upload_probabilities([e_sq], psi)[0] == pytest.approx(1.0, abs=1e-12)

    @given(
        st.floats(min_value=1e-12, max_value=1e6),
        st.floats(min_value=1e-12, max_value=1e6),
        st.floats(min_value=-20, max_value=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_error_and_psi(self, e1, e2, psi):
        lo, hi = sorted([e1, e2])
        assert upload_probabilities([lo], psi)[0] <= upload_probabilities([hi], psi)[0]
        assert upload_probabilities([lo], psi)[0] >= upload_probabilities([lo], psi + 0.5)[0]
        assert 0.0 <= upload_probabilities([hi], psi)[0] <= 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            upload_probabilities([-0.1], 0.0)


class TestDualAscent:
    def test_equilibrium_leaves_psi(self):
        assert dual_ascent_step(0.4, K=3, channels=3, mu=0.5) == 0.4
        np.testing.assert_array_equal(
            dual_ascent_step(np.array([0.4, -1.0]), np.array([3, 3]), 3, 0.5), [0.4, -1.0])

    def test_step_arithmetic(self):
        assert dual_ascent_step(0.0, K=5, channels=3, mu=0.5) == pytest.approx(1.0)
        assert dual_ascent_step(0.0, K=0, channels=3, mu=0.5) == pytest.approx(-1.5)
        # one entry per seed, each stepped as a float of its own
        psi, K = np.array([0.0, 0.0, 0.3]), np.array([5, 0, 4])
        np.testing.assert_array_equal(
            dual_ascent_step(psi, K, 3, 0.7),
            [dual_ascent_step(float(p), int(k), 3, 0.7) for p, k in zip(psi, K)])

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError, match="nonnegative"):
            dual_ascent_step(0.0, K=-1, channels=3, mu=0.5)
        with pytest.raises(ValueError, match="nonnegative"):
            dual_ascent_step(np.zeros(2), np.array([2, -1]), 3, 0.5)

    def test_round_loop_runs_the_public_step(self, monkeypatch):
        # every modified round hands each seed's active count to
        # dual_ascent_step, and the next round's sensors use its result
        cfg = AlohaConfig(channels=3, candidates=10, mu=0.5, psi0=0.2, mode="modified")
        real, calls = dual_ascent_step, []

        def spy(psi, K, channels, mu):
            out = real(psi, K, channels, mu)
            calls.append((np.array(K), np.array(out), channels, mu))
            return out

        monkeypatch.setattr(fieldsense.aloha, "dual_ascent_step", spy)
        stepped = None
        for _, _, t, rnd, failed in run_aloha_batches(
                range(1, 6), lambda rng: gen_random_sinusoid(60, 10, 0.1, rng), cfg, 8, UNIT):
            assert not failed and len(calls) == t  # rounds count from 1
            K, out, channels, mu = calls[-1]
            assert (channels, mu) == (3, 0.5)
            np.testing.assert_array_equal(K, rnd.active)
            assert rnd.psi == ([cfg.psi0] * 5 if t == 1 else stepped)
            stepped = out.tolist()
        assert len(calls) == 8

    def test_regulates_active_count_with_stationary_errors(self):
        # A fresh upload state each round keeps error statistics stationary;
        # the running mean of K should settle near B.
        cfg = AlohaConfig(channels=3, candidates=10, mu=0.5, mode="modified")
        rngs = [np.random.default_rng(seed) for seed in range(5)]
        fields = [gen_random_sinusoid(200, 10, 0.1, rng) for rng in rngs]
        meas = np.stack([f.measurements for f in fields])
        psi = np.full(5, cfg.psi0)
        ks = []
        for _ in range(200):
            cands = [sorted(rng.choice(200, size=10, replace=False).tolist()) for rng in rngs]
            cond, mask = fresh_batch(fields)
            rnd, _ = play_round(cands, meas, mask, psi, cfg, cond, rngs)
            ks.append(rnd.active)
        mean_k = np.mean(ks[-20:], axis=0)
        assert abs(np.mean(mean_k) - 3) < 1.0


class TestContend:
    """The contention rule the round loop runs, ``_alone``, against a
    from-scratch count of each channel's transmitters."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 12))
    @settings(max_examples=50, deadline=None)
    def test_collision_rule_replay(self, seed, B, n):
        rng = np.random.default_rng(seed)
        p = np.random.default_rng(seed + 1).uniform(0, 1, n)
        active = rng.random((3, n)) < p
        channel = rng.integers(0, B, size=(3, n))
        batch = _alone(active, channel, B)  # each row contends on channels of its own
        for row in range(3):
            act, chan = active[row], channel[row]
            success = _alone(act, chan, B)
            np.testing.assert_array_equal(batch[row], success)
            for q in range(n):
                alone = act[q] and sum(
                    1 for t in range(n) if act[t] and chan[t] == chan[q]) == 1
                assert success[q] == alone

    def test_empty(self):
        assert _alone(np.zeros(0, bool), np.zeros(0, int), 3).size == 0
        assert _alone(np.zeros((4, 0), bool), np.zeros((4, 0), int), 3).shape == (4, 0)


def perfect_prediction_setup():
    """Two co-located sensors; after the first uploads, the GP predicts the
    second's measurement exactly, so its error is zero."""
    noise = 0.01
    v = 1.3
    predicted = v / (1 + noise)  # posterior mean at the shared location
    field = make_field([0.0, 0.0], values=[v, predicted], noise=noise)
    return field


class TestSimulateRound:
    """The round that ``run_aloha_batches`` plays on a seed batch."""

    def test_zero_errors_keep_everyone_silent(self):
        field = perfect_prediction_setup()
        cfg = AlohaConfig(channels=2, candidates=2, mode="modified")
        log, mask, _ = one_round(field, [1], cfg, np.random.default_rng(0),
                                 uploaded=(0,))
        assert log.errors[0] == pytest.approx(0.0, abs=1e-12)
        assert log.probabilities[0] == 0.0 or log.probabilities[0] < 1e-10
        assert not log.activity.any()
        assert log.sse == pytest.approx(0.0, abs=1e-20)
        assert mask.tolist() == [True, False]

    def test_single_candidate_certain_upload(self):
        field = make_field([0.0, 5.0])
        cfg = AlohaConfig(channels=1, candidates=1, mode="conventional")
        log, mask, _ = one_round(field, [1], cfg, np.random.default_rng(3))
        assert log.successes == [1]
        assert mask.tolist() == [False, True]
        assert log.sse == 0.0

    def test_mean_successes_match_throughput(self):
        # 20,000 seed-rounds, as 40 rounds of a fresh 500-seed batch
        field = make_field(np.linspace(0, 9, 10), noise=0.1)
        cfg = AlohaConfig(channels=3, candidates=10, mode="conventional")
        rng = np.random.default_rng(4)
        n_seeds, n_rounds = 500, 40
        total = 0
        for _ in range(n_rounds):
            cond, mask = fresh_batch([field] * n_seeds)
            rnd, _ = play_round([list(range(10))] * n_seeds,
                                np.tile(field.measurements, (n_seeds, 1)), mask,
                                np.zeros(n_seeds), cfg, cond, [rng] * n_seeds)
            total += sum(map(len, rnd.successes))
        want = expected_throughput(0.3, cfg)
        assert total / (n_seeds * n_rounds) == pytest.approx(want, rel=0.02)

    def test_round_log_invariants(self):
        rng = np.random.default_rng(5)
        field = gen_random_sinusoid(40, 10, 0.1, rng)
        cfg = AlohaConfig(channels=3, candidates=10, mode="modified", p_sleep=0.3)
        cond, mask = fresh_batch([field])
        psi = np.zeros(1)
        for _ in range(15):
            rem = np.flatnonzero(~mask[0])
            cand = sorted(rng.choice(rem, size=min(10, rem.size), replace=False).tolist())
            rnd, failed = play_round([cand], field.measurements[None], mask, psi, cfg,
                                     cond, [rng])
            assert not failed
            (log,) = oracle.rows(rnd)
            active_set = {c for c, a in zip(log.candidates, log.activity) if a}
            assert set(log.successes) | set(log.collided) == active_set
            assert set(log.successes) & set(log.collided) == set()
            assert set(np.flatnonzero(~mask[0])) == set(rem.tolist()) - set(log.successes)
            failures = [q for q in range(len(cand)) if cand[q] not in log.successes]
            recomputed = float(np.sum(log.errors[failures] ** 2))
            assert recomputed == log.sse  # bitwise
            assert np.sum(log.probabilities) <= cfg.candidates + 1e-12
            assert log.sse >= 0.0

    def test_conventional_leaves_dual_untouched(self):
        field = make_field(np.linspace(0, 9, 10), noise=0.1)
        cfg = AlohaConfig(channels=3, candidates=10, mode="conventional")
        log, _, psi = one_round(field, list(range(10)), cfg, np.random.default_rng(6), psi=0.7)
        assert log.psi == psi == 0.7


class TestRunAloha:
    def test_deterministic(self):
        def one():
            cfg = AlohaConfig(channels=3, candidates=10, mode="modified")
            return aloha_logs(sinusoid(50), cfg, 12, UNIT, seed=11)

        a, b = one(), one()
        assert [l.candidates for l in a] == [l.candidates for l in b]
        assert [l.sse for l in a] == [l.sse for l in b]
        assert [l.successes for l in a] == [l.successes for l in b]

    def test_pool_exhaustion_gives_empty_rounds(self):
        cfg = AlohaConfig(channels=6, candidates=6, mode="conventional")
        logs = aloha_logs(sinusoid(6), cfg, 40, UNIT, seed=12)
        assert sum(len(l.successes) for l in logs) == 6
        tail = [l for l in logs if not l.candidates]
        assert tail, "pool should empty within 40 rounds"
        assert all(l.sse == 0.0 for l in tail)

    def test_candidates_always_remaining_and_within_q(self):
        cfg = AlohaConfig(channels=3, candidates=10, mode="conventional")
        logs = aloha_logs(sinusoid(30), cfg, 20, UNIT, seed=13)
        uploaded = set()
        for log in logs:
            assert len(log.candidates) <= 10
            assert not (set(log.candidates) & uploaded)
            uploaded.update(log.successes)

    def test_conventional_sse_approaches_bound_late(self):
        # Once predictions are noise-limited the only residual loss is
        # collisions, so the mean SSE settles near sigma^2 (Q - B/e).  The
        # approach is slow (the GP needs dense coverage); rounds 120-150 of a
        # 150-round run sit within 15% of the bound, averaged over 60 fields.
        # This is the convergence check behind acceptance criterion 7, whose
        # part (a) tests the bound as a floor at rounds 30-40; over criterion
        # 7's 1000 seeds these rounds average 0.996 (bound 0.890).
        acc = np.zeros(150)
        n_seeds = 60
        cfg = AlohaConfig(channels=3, candidates=10, mode="conventional")
        for _, _, t, rnd, failed in run_aloha_batches(range(1, n_seeds + 1), sinusoid(200),
                                                      cfg, 150, UNIT):
            assert not failed
            acc[t - 1] += sum(rnd.sse)
        late = acc[119:150].mean() / n_seeds
        bound = sse_lower_bound(0.1, 10, 3)
        assert abs(late - bound) / bound < 0.15

    def test_sleep_mode_reduces_activity(self):
        def total_active(p_sleep, seed=14):
            cfg = AlohaConfig(channels=3, candidates=10, mode="conventional",
                              p_sleep=p_sleep)
            return sum(int(l.activity.sum())
                       for l in aloha_logs(sinusoid(100), cfg, 20, UNIT, seed=seed))

        assert total_active(0.8) < total_active(0.0)


def assert_matches_oracle(got, want):
    """The library's round logs against the from-scratch loop's: the draws and
    outcomes exactly, the predictions, errors and SSE within round-off.  An
    upload probability moves by 2e * d / |error| when its error moves by d,
    so it gets a wider tolerance."""
    for g, w in zip(got, want, strict=True):
        assert g.candidates == w.candidates
        assert g.successes == w.successes
        assert g.collided == w.collided
        np.testing.assert_array_equal(g.activity, w.activity)
        np.testing.assert_array_equal(g.channel_choice, w.channel_choice)
        assert g.psi == w.psi
        np.testing.assert_allclose(g.predictions, w.predictions, rtol=0, atol=1e-10)
        np.testing.assert_allclose(g.errors, w.errors, rtol=0, atol=1e-10)
        np.testing.assert_allclose(g.probabilities, w.probabilities, rtol=0, atol=1e-8)
        assert abs(g.sse - w.sse) <= 1e-12


class TestRunAlohaMatchesOracle:
    """One conditioner carried across rounds predicts what a from-scratch
    solve on every upload so far predicts, so the two loops draw alike."""

    @pytest.mark.parametrize(
        "L,B,Q,mode,p_sleep",
        [
            (60, 3, 10, "conventional", 0.0),
            (60, 3, 10, "modified", 0.0),
            (60, 3, 10, "modified", 0.3),
            (60, 4, 3, "modified", 0.0),  # B >= Q
            (60, 4, 3, "conventional", 0.0),
            (30, 3, 10, "modified", 0.0),  # the pool runs dry within 40 rounds
            (30, 3, 10, "conventional", 0.0),
        ],
    )
    def test_matches_from_scratch_loop(self, L, B, Q, mode, p_sleep):
        cfg = AlohaConfig(channels=B, candidates=Q, mode=mode, p_sleep=p_sleep)
        empty_rounds = 0
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            want = oracle.run_aloha(gen_random_sinusoid(L, 10, 0.1, rng), cfg, 40, UNIT, rng)
            got = aloha_logs(sinusoid(L), cfg, 40, UNIT, seed=seed)
            assert_matches_oracle(got, want)
            empty_rounds += sum(not g.candidates for g in got)
        if L == 30:
            assert empty_rounds > 0


class TestRunAlohaProperties:
    """Whole runs over random B, Q (B >= Q included), p_sleep, mode and L:
    the round logs keep the upload record consistent, and match the
    from-scratch loop with the tolerances of TestRunAlohaMatchesOracle."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        L=st.integers(1, 40),
        B=st.integers(1, 6),
        Q=st.integers(1, 12),
        p_sleep=st.floats(0.0, 0.95),
        mode=st.sampled_from(MODES),
        rounds=st.integers(1, 30),
    )
    @settings(max_examples=60, deadline=None)
    def test_run_invariants(self, seed, L, B, Q, p_sleep, mode, rounds):
        cfg = AlohaConfig(channels=B, candidates=Q, p_sleep=p_sleep, mode=mode)

        rng = np.random.default_rng(seed)
        want = oracle.run_aloha(gen_random_sinusoid(L, 10, 0.1, rng), cfg, rounds, UNIT, rng)
        logs = aloha_logs(sinusoid(L), cfg, rounds, UNIT, seed=seed)
        assert_matches_oracle(logs, want)
        uploaded: list[int] = []  # the successes of the rounds so far, concatenated
        for log in logs:
            waiting = L - len(uploaded)
            # only waiting sensors contend: Q of them, and once no more than Q
            # remain, every sensor the successes so far leave
            assert len(set(log.candidates)) == len(log.candidates) == min(Q, waiting)
            assert not set(log.candidates) & set(uploaded)
            if waiting <= Q:
                assert set(log.candidates) == set(range(L)) - set(uploaded)
            assert set(log.successes) <= set(log.candidates)
            if not waiting:  # pool exhausted
                assert log.candidates == [] and log.sse == 0.0
            uploaded += log.successes
            assert len(set(uploaded)) == len(uploaded)  # nobody succeeds twice


def assert_logs_equal(got, want):
    """Two runs' logs, equal bit for bit."""
    for g, w in zip(got, want, strict=True):
        assert g.candidates == w.candidates
        assert g.successes == w.successes
        assert g.collided == w.collided
        for name in ("predictions", "errors", "probabilities", "activity", "channel_choice"):
            np.testing.assert_array_equal(getattr(g, name), getattr(w, name))
        assert g.sse == w.sse
        assert g.psi == w.psi


class TestRunAlohaSeeds:
    """A seed batch plays every seed as its batch of one would, bit for bit,
    whatever its batch-mates do, across the in-flight bound."""

    @pytest.mark.parametrize("L,B,Q,mode,p_sleep", [
        (200, 3, 10, "modified", 0.0),
        (200, 5, 10, "conventional", 0.0),
        (30, 4, 10, "modified", 0.3),  # seeds run dry in different rounds
        (30, 4, 10, "conventional", 0.3),
    ])
    def test_each_seed_equals_its_own_run(self, L, B, Q, mode, p_sleep):
        cfg = AlohaConfig(channels=B, candidates=Q, mode=mode, p_sleep=p_sleep)
        seeds = range(1, 41)  # batches of 20 (B = 3), 10 (B = 5) or all 40 (L = 30)
        runs = by_seed(run_aloha_batches(seeds, sinusoid(L), cfg, 40, UNIT))
        assert list(runs) == list(seeds)
        dry = set()
        for seed, (field, logs) in runs.items():
            ((own, own_logs),) = by_seed(run_aloha_batches([seed], sinusoid(L), cfg, 40,
                                                           UNIT)).values()
            np.testing.assert_array_equal(field.measurements, own.measurements)
            assert_logs_equal(logs, own_logs)
            dry.add(next((t for t, log in enumerate(logs) if not log.candidates), None))
        if L == 30:  # ragged batches: pools ran dry at different rounds
            assert len(dry - {None}) > 1

    @pytest.mark.parametrize("mode", MODES)
    def test_matches_from_scratch_loop(self, mode):
        cfg = AlohaConfig(channels=4, candidates=10, mode=mode, p_sleep=0.3)
        runs = by_seed(run_aloha_batches(range(1, 37), sinusoid(30), cfg, 40, UNIT))
        for seed, (field, logs) in runs.items():
            rng = np.random.default_rng(seed)
            want = oracle.run_aloha(gen_random_sinusoid(30, 10, 0.1, rng), cfg, 40, UNIT, rng)
            assert_matches_oracle(logs, want)

    def test_failing_seed_leaves_its_batch_alone(self, monkeypatch):
        cfg = AlohaConfig(channels=3, candidates=10, mode="modified")
        make = sinusoid(60)
        doomed = gen_random_sinusoid(60, 10, 0.1, np.random.default_rng(5)).locations
        poisoned = fieldsense.gp.IncrementalConditioner
        monkeypatch.setattr(poisoned, "observe", poisoning_observe(doomed, at=3))
        with pytest.raises(ValueError, match="below round-off") as alone:
            aloha_logs(make, cfg, 40, UNIT, seed=5)
        monkeypatch.setattr(poisoned, "observe", poisoning_observe(doomed, at=3))
        stream = list(run_aloha_batches(range(1, 9), make, cfg, 40, UNIT))
        # one row is reported failed, seed 5's, with its own run's message
        assert [(batch[row], message) for batch, _, _, _, failed in stream
                for row, message in failed.items()] == [(5, str(alone.value))]
        runs = by_seed(stream)
        field, error = runs.pop(5)
        assert isinstance(error, ValueError) and str(error) == str(alone.value)
        monkeypatch.undo()
        clean = by_seed(run_aloha_batches([1, 2, 3, 4, 6, 7, 8], make, cfg, 40, UNIT))
        assert list(runs) == list(clean)
        for seed in runs:
            assert_logs_equal(runs[seed][1], clean[seed][1])

    @given(
        seed=st.integers(0, 2**32 - 1),
        L=st.integers(1, 60),
        B=st.integers(1, 6),
        Q=st.integers(1, 12),
        psi0=st.integers(-20, 20),
        rounds=st.integers(1, 30),
    )
    @settings(max_examples=40, deadline=None)
    def test_sleep_near_one_lets_psi_fall_by_mu_b(self, seed, L, B, Q, psi0, rounds):
        # every candidate is dormant, so K = 0 and psi falls by mu * B a round;
        # with mu = 0.5 and psi0 a multiple of 1/2 every step is exact
        cfg = AlohaConfig(channels=B, candidates=Q, p_sleep=float(np.nextafter(1.0, 0.0)),
                          mu=0.5, psi0=psi0 / 2, mode="modified")
        alone = aloha_logs(sinusoid(L), cfg, rounds, UNIT, seed=seed)
        batch = by_seed(run_aloha_batches([seed, seed + 1], sinusoid(L), cfg, rounds, UNIT))
        for logs in (alone, batch[seed][1], batch[seed + 1][1]):
            for r, log in enumerate(logs, start=1):
                assert len(log.candidates) == min(Q, L)
                assert not log.activity.any() and log.successes == []
                assert log.psi == cfg.psi0 - (r - 1) * cfg.mu * B
        assert_logs_equal(alone, batch[seed][1])


class TestAlohaConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(channels=0, candidates=10),
            dict(channels=3, candidates=0),
            dict(channels=3, candidates=10, p_sleep=1.0),
            dict(channels=3, candidates=10, mu=0.0),
            dict(channels=3, candidates=10, mode="other"),
            dict(channels=3, candidates=10, mu=math.inf),
            dict(channels=3, candidates=10, psi0=math.nan),
            dict(channels=3, candidates=10, psi0=math.inf),
            dict(channels=3, candidates=10, psi0=-math.inf),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            AlohaConfig(**kwargs)


class TestUnitFree:
    def test_conventional_rounds_alike_at_every_scale(self):
        # s2 = 4**k, values times 2**k, noise times 4**k: the same successes
        # and SSE / s2, bit for bit (modified mode's psi is in log units)
        from test_das import scaled_field
        base = gen_random_sinusoid(60, 10, 0.1, np.random.default_rng(5))
        cfg = AlohaConfig(channels=3, candidates=10, mode="conventional")
        want = None
        for k in range(-20, 21):
            params = KernelParams(1.0, 4.0**k)
            logs = aloha_logs(scaled_field(base, k), cfg, 12, params, seed=9)
            got = [(log.successes, log.sse / params.signal_variance) for log in logs]
            want = want or got
            assert got == want, k
