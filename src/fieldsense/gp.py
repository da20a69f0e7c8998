"""Gaussian process regression core: kernel evaluation and posterior inference.

The model is a zero-mean GP over spatial locations with a squared-exponential
kernel and iid Gaussian observation noise.  Conditioning on observed
measurements yields closed-form posterior means and covariances over any
target location set.  Every posterior runs on one engine, the
:class:`IncrementalConditioner`, which extends the Cholesky factor of the
noise-augmented kernel matrix one observation at a time (never an explicit
inverse), with pivot jitter as a fallback for nearly singular systems.

Locations are represented as rows of a float array of shape (n, d); 1-D
inputs (scalars, flat lists) are promoted to shape (n, 1).  The conditioner
takes a seed batch of S such sets, an (S, n, d) array; one field is the
batch of one.
"""

import bisect
import itertools
import math
import mmap
from dataclasses import dataclass

import numpy as np

# Negative posterior variances above this floor, in units of the signal
# variance, are treated as round-off and clamped to zero; anything more
# negative indicates a real defect.
VARIANCE_CLAMP = -1e-10

# Diagonal jitter tried on a pivot, in units of the signal variance: none,
# then 1e-10, 1e-9, ..., 1e-6 where the update would leave a real negative.
_PIVOT_JITTER = (0.0,) + tuple(10.0**k for k in range(-10, -5))


@dataclass(frozen=True)
class KernelParams:
    """Squared-exponential kernel parameters.

    k(a, b) = signal_variance * exp(-||a - b||^2 / (2 * length_scale^2))

    The divisor 2 * length_scale^2 must be a positive finite float: one that
    overflows, or underflows to 0, leaves no usable kernel.
    """

    length_scale: float = 1.0
    signal_variance: float = 1.0

    def __post_init__(self):
        try:
            two_l2 = 2.0 * self.length_scale**2
        except OverflowError:
            two_l2 = math.inf
        if not (self.length_scale > 0 and 0 < two_l2 < math.inf):
            raise ValueError("length_scale must be positive with 2 * length_scale**2 a "
                             f"positive finite float, got {self.length_scale}")
        if not (self.signal_variance > 0 and math.isfinite(self.signal_variance)):
            raise ValueError(
                f"signal_variance must be positive, got {self.signal_variance}"
            )


@dataclass
class GprPosterior:
    """Posterior of the latent field over an ordered set of target locations."""

    mean: np.ndarray
    covariance: np.ndarray
    target_locations: np.ndarray

    @property
    def variance(self) -> np.ndarray:
        return np.diag(self.covariance).copy()


def as_points(locs, dim: int | None = None) -> np.ndarray:
    """Normalize location input to a float array of shape (n, d).

    Accepts a scalar (one 1-D point), a flat sequence (n 1-D points), a
    sequence of coordinate tuples, or an (n, d) array.
    """
    arr = np.asarray(locs, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        # A flat vector is a list of 1-D points unless a higher dim is forced.
        arr = arr.reshape(-1, 1) if dim in (None, 1) else arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ValueError(f"locations must be at most 2-dimensional, got shape {arr.shape}")
    if arr.shape[0] and not arr.shape[1]:
        raise ValueError("locations need at least one coordinate")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("locations contain non-finite coordinates")
    if dim is not None and arr.shape[1] != dim:
        raise ValueError(f"expected {dim}-dimensional locations, got {arr.shape[1]}")
    return arr


def _sq_exp(a: np.ndarray, b: np.ndarray, params: KernelParams) -> np.ndarray:
    """Kernel values between points ``a`` and ``b``, coordinate-major (d, ...)
    arrays that broadcast against each other.

    The squared distance is summed one coordinate at a time, in order: for
    the few coordinates a location has this is the left-to-right sum a
    reduction over them gives, bit for bit, at a fraction of its cost.  Each
    coordinate's difference is formed and squared on its own, so no (d, ...)
    array of differences is held, and the rest is computed in place in the
    one result array.  Dividing by -2 l^2 gives the bits of negating first:
    IEEE rounding is symmetric in sign.
    """
    d2 = np.subtract(a[0], b[0])
    d2 *= d2
    for ak, bk in zip(a[1:], b[1:]):
        dk = np.subtract(ak, bk)
        dk *= dk
        d2 += dk
    np.divide(d2, -2.0 * params.length_scale**2, out=d2)
    np.exp(d2, out=d2)
    d2 *= params.signal_variance
    return d2


def gram(rows, cols, params: KernelParams) -> np.ndarray:
    """Kernel matrix with entry (i, j) = k(rows[i], cols[j]).

    Empty inputs are allowed and produce a correspondingly empty matrix.
    When ``rows`` and ``cols`` are the same list the result is exactly
    symmetric (distances are computed from pairwise differences).
    """
    r = as_points(rows)
    c = as_points(cols)
    if r.size and c.size and r.shape[1] != c.shape[1]:
        raise ValueError(f"dimension mismatch: {r.shape[1]} vs {c.shape[1]}")
    if r.shape[0] == 0 or c.shape[0] == 0:
        return np.zeros((r.shape[0], c.shape[0]))
    return _sq_exp(r.T[:, :, None], c.T[:, None, :], params)


def posterior(
    observed_locs,
    observed_values,
    target_locs,
    params: KernelParams,
    noise_variance: float,
) -> GprPosterior:
    """Posterior mean and covariance of the field at ``target_locs``.

    mean = K(T, O) (K(O, O) + noise I)^-1 y
    cov  = K(T, T) - K(T, O) (K(O, O) + noise I)^-1 K(O, T)

    With no observations this degenerates to the zero-mean prior.  The
    conditioner runs over the observed locations followed by the targets.
    The returned covariance is symmetrized and its diagonal is the
    conditioner's clamped variance (round-off negatives only; see
    VARIANCE_CLAMP).
    """
    targets = as_points(target_locs)
    if targets.shape[0] == 0:
        raise ValueError("target location set is empty")
    dim = targets.shape[1]
    obs = as_points(observed_locs, dim=dim) if np.size(observed_locs) else np.zeros((0, dim))
    values = np.asarray(observed_values, dtype=float).ravel()
    if obs.shape[0] != values.shape[0]:
        raise ValueError(
            f"{obs.shape[0]} observed locations but {values.shape[0]} values"
        )
    n = obs.shape[0]
    cond = IncrementalConditioner(np.vstack([obs, targets])[None], params, noise_variance,
                                  capacity=n)
    failed = cond.observe(np.arange(n), values, np.zeros(n, dtype=int))
    if failed:
        raise ValueError(failed[0])
    targets = cond.target_locations[0, n:]
    v = cond._a[0, :n, n:]  # L^-1 K(O, T)
    cov = gram(targets, targets, params) - v.T @ v
    cov = 0.5 * (cov + cov.T)
    np.fill_diagonal(cov, cond.variance[0, n:])
    return GprPosterior(cond.mean[0, n:], cov, targets)


def _zeros(shape) -> np.ndarray:
    """A zero-filled float array on fresh anonymous pages, which become
    resident only once written.  ``np.zeros`` may reuse a block the allocator
    has just freed, and clearing it makes every page of that block resident.
    As numpy does for its own arrays, a block of 4 MiB or more asks for huge
    pages, which take a fault per 2 MiB written instead of per 4 KiB."""
    size = math.prod(shape)
    buf = mmap.mmap(-1, max(8 * size, 1), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if 8 * size >= 4 * 2**20 and hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, count=size).reshape(shape)


class IncrementalConditioner:
    """Conditions S GP fields, a seed batch, on observations added one at a time.

    Targets are fixed up front, an (S, n, d) array with each seed's own
    target locations; observations must be drawn from a seed's targets (the
    round loop observes sensors, the one-off posterior, a batch of one,
    conditions over the observed locations followed by the targets).
    Appending an observation extends the seed's Cholesky factor of the
    noise-augmented kernel matrix by one row, so ``mean`` and ``variance``,
    (S, n) arrays of every seed's posterior, stay current at O(n_obs *
    n_targets) cost and memory per round; ``n_observations`` counts each
    seed's observations.  ``observe`` computes the kernel rows it needs,
    from a coordinate-major copy of the targets (one contiguous row per
    coordinate and seed), so they are the matrix-vector products' minor
    cost.  ``observe`` takes every upload a caller has at once: any seeds,
    in any order, each as often as it uploads.  Every seed is conditioned
    on its own rows, so its numbers are bit-identical to a batch of one.

    ``weights``, the rows :meth:`residual_variance` scores, are given once
    at construction: (k, n), shared by every seed, or (S, k, n), with k >= 1
    and every entry finite.  The conditioner keeps their products with the
    prior, W K, built from kernel rows over the columns the rows weigh and
    kept current by one rank-one downdate per upload: no (n, n) prior is
    ever held, and one-hot rows on k consecutive targets (virtual points)
    cost k kernel rows.

    Every seed's factor rows live in one (S, capacity, n) block, allocated
    once; the rows a seed has not written are zero.  ``capacity`` is the
    most observations a seed takes (a DAS run takes one per round), by
    default one per target.  The block is laid on fresh pages, and only the
    pages a seed writes become resident, so memory follows the rows written,
    not the capacity.  A seed that observes past the capacity doubles the
    block, copying it.

    Round-off negative variances above ``VARIANCE_CLAMP`` times the signal
    variance clamp to zero.
    Where an update would leave one below, the pivot gets the smallest
    jitter of 1e-10 up to 1e-6 times the signal variance that avoids it;
    if none does, the update fails and leaves its seed unchanged.
    """

    def __init__(self, target_locs, params: KernelParams, noise_variance: float,
                 capacity: int | None = None, weights=None):
        locs = np.asarray(target_locs, dtype=float)
        if locs.ndim != 3:
            raise ValueError(f"target locations must be an (S, n, d) array, got shape "
                             f"{locs.shape}")
        targets = as_points(locs.reshape(-1, locs.shape[-1]))
        if not (noise_variance > 0 and math.isfinite(noise_variance)):
            raise ValueError(f"noise_variance must be positive, got {noise_variance}")
        n_seeds, n = locs.shape[:2]
        if capacity is None:
            capacity = n
        if capacity < 0:
            raise ValueError(f"capacity must be nonnegative, got {capacity}")
        self.params = params
        self.noise_variance = noise_variance
        self.target_locations = targets.reshape(locs.shape)
        # (d, S, n): one contiguous row per coordinate and seed
        self._coords = np.ascontiguousarray(np.moveaxis(self.target_locations, -1, 0))
        # Row t of _a[s] is the t-th row of L^-1 K(obs, targets) for seed s;
        # _c[s] is L^-1 y.
        self._a = _zeros((n_seeds, capacity, n))
        self._c = np.zeros((n_seeds, capacity))
        self.n_observations = [0] * n_seeds
        # (S, n) posterior means and variances, updated in place
        self.mean = np.zeros((n_seeds, n))
        self.variance = np.full((n_seeds, n), params.signal_variance)
        self._w = self._span = None  # the scored rows: see _weigh
        if weights is not None:
            self._weigh(weights)

    def observe(self, index, value, seed) -> dict:
        """Condition seeds on (noisy) measurements at their targets.

        ``index``, ``value`` and ``seed`` hold one target, measurement and
        seed per upload, the seeds in any order, a repeated seed taking its
        uploads in the order given; scalars are one upload.

        Slot j is each seed's j-th upload, its seeds ascending.  Uploads of
        distinct ascending seeds (a DAS round) are one slot as given; any
        others are put in slot order by one sort of their (slot, seed) keys.
        The kernel rows of every upload are built at once, and then each
        slot runs as (m, n) array operations (:meth:`_slot`).  A seed no
        jitter saves is left as that upload found it and takes none of its
        later ones.  Returns ``{seed: message}`` for those seeds.  Bad seeds,
        targets or values raise before anything changes.
        """
        index = np.atleast_1d(index)
        value = np.atleast_1d(np.asarray(value, dtype=float))
        seed = np.atleast_1d(seed)
        n_seeds, n = self.mean.shape
        m = seed.size
        if not index.size == value.size == m:
            raise ValueError(f"observe needs one target and value per seed, got "
                             f"{index.size}, {value.size} and {m}")
        if not m:
            return {}
        seeds, idx = seed.tolist(), index.tolist()
        for name, got, size in (("seed", seeds, n_seeds), ("target index", idx, n)):
            if not (0 <= min(got) and max(got) < size):
                bad = next(x for x in got if not 0 <= x < size)
                raise IndexError(f"{name} {bad} out of range")
        if not all(map(math.isfinite, value.tolist())):
            raise ValueError("observed value is not finite")
        ends = [m]
        if seeds != sorted(set(seeds)):  # slot j, seed s sorts at j * n_seeds + s
            nth = dict.fromkeys(seeds, 0)
            keys = []
            for s in seeds:
                keys.append(nth[s] * n_seeds + s)
                nth[s] += 1
            order = np.array(sorted(range(m), key=keys.__getitem__))
            seed, index, value = seed[order], index[order], value[order]
            seeds, idx = seed.tolist(), index.tolist()
            counts = sorted(nth.values())  # slot j holds the seeds with more than j uploads
            ends = list(itertools.accumulate(len(counts) - bisect.bisect(counts, j)
                                             for j in range(counts[-1])))
        # a run of consecutive seeds (every seed of a DAS round) is a slice,
        # whose rows are views: a batch of one makes no copy of its rows
        run = len(ends) == 1 and seeds[-1] - seeds[0] == m - 1
        own = slice(seeds[0], seeds[0] + m) if run else seed
        at = seed * n + index  # each upload's target, flat over the (S, n) arrays
        # targets are validated: skip gram's checks
        coords = self._coords
        k_rows = _sq_exp(coords[:, own], coords.reshape(len(coords), -1)[:, at, None], self.params)
        failed = {}
        for a, b in zip([0, *ends], ends):
            take = slice(a, b)
            if failed:  # a failed seed takes none of its later uploads
                take = [r for r in range(a, b) if seeds[r] not in failed]
                if not take:
                    continue
                take = np.array(take)
            self._slot(seed[take], index[take], at[take], value[take], k_rows[take], failed)
        return failed

    def _slot(self, seed, index, at, value, k_rows, failed: dict) -> None:
        """One upload each of ascending distinct seeds, of ``value`` at target
        ``index`` (flat position ``at``); those no jitter saves go to ``failed``.

        Each seed's product with its own factor rows keeps a one-upload
        call's operands, and so its numbers: alone, or stacked over a run of
        consecutive seeds holding equally many rows, the left operand at the
        one-seed call's stride.  The rest runs once over the slot: the new
        factor rows, one clamp check over all of them (row by row only where
        some variance is below ``VARIANCE_CLAMP`` times the signal variance;
        such a seed alone climbs the jitter ladder), and the writes of the
        rows, means and variances, in place where the seeds are consecutive.
        """
        seeds, idx = seed.tolist(), index.tolist()
        n_obs = self.n_observations
        ts = [n_obs[s] for s in seeds]
        m, n = k_rows.shape
        if max(ts) == self._c.shape[1]:  # a seed fills its rows: double every seed's
            cap, n_seeds = self._c.shape[1], len(n_obs)
            grown = _zeros((n_seeds, max(2 * cap, 8), n))
            grown[:, :cap] = self._a
            self._a = grown
            self._c = np.concatenate([self._c, np.zeros((n_seeds, grown.shape[1] - cap))], 1)
        a, cs = self._a, self._c
        rows = slice(seeds[0], seeds[0] + m) if seeds[-1] - seeds[0] == m - 1 else seed
        lockstep = isinstance(rows, slice) and ts.count(ts[0]) == m  # the slot is one run
        # each maximal run of consecutive seeds at one row count
        runs = [0, m] if lockstep else [0, *[r for r in range(1, m) if seeds[r] - seeds[r - 1] != 1
                                             or ts[r] != ts[r - 1]], m]
        prod = np.empty((m, n))
        lc = np.empty(m)
        for r, e in zip(runs, runs[1:]):
            s, t = seeds[r], ts[r]
            if e - r == 1:  # one seed's t-row products on their own
                f = a[s, :t]
                lvec = f[:, idx[r]]
                np.matmul(lvec, f, out=prod[r])
                lc[r] = lvec.dot(cs[s, :t])
            else:
                # one stacked product: each seed's column gathered at the
                # stride n > 1 gives the one-seed call's own column view
                # (contiguous, as that view is, at n = 1); a contiguous copy
                # differs in the last bits
                f = a[s : s + e - r, :t]
                lvec = np.empty((e - r, t)) if n == 1 else np.empty((e - r, t, 2))[..., 0]
                lvec[...] = a[seed[r:e], :t, index[r:e]]
                np.matmul(lvec[:, None], f, out=prod[r:e, None])
                lc[r:e] = np.matmul(lvec[:, None], cs[s : s + e - r, :t, None])[:, 0, 0]
        resid = np.subtract(k_rows, prod, out=prod)
        pivot = self.variance.take(at)
        pivot += self.noise_variance
        d = np.sqrt(pivot)
        # one run's new factor rows are written in place
        row = np.divide(resid, d[:, None], out=a[rows, ts[0]] if lockstep else None)
        # a slice's rows are views; gathered rows are copies
        old = self.variance[rows] if isinstance(rows, slice) else self.variance.take(seed, axis=0)
        variance = np.multiply(row, row)
        np.subtract(old, variance, out=variance)
        bad = []
        s2 = self.params.signal_variance
        clamp = VARIANCE_CLAMP * s2
        if variance.min() < clamp:
            low = variance.min(axis=1).tolist()
            for r in [r for r, x in enumerate(low) if x < clamp]:
                for jitter in _PIVOT_JITTER[1:]:  # this seed alone, up the ladder
                    d[r] = math.sqrt(pivot[r] + jitter * s2)
                    row[r] = resid[r] / d[r]
                    variance[r] = old[r] - row[r] * row[r]
                    low[r] = variance[r].min()
                    if low[r] >= clamp:
                        break
                else:
                    failed[seeds[r]] = (f"posterior variance {low[r]:g} below round-off "
                                        f"tolerance {clamp:g}")
                    row[r] = 0.0  # a factor row written in place is unwritten
                    bad.append(r)
        c = np.subtract(value, lc, out=lc)
        c /= d
        t = np.array(ts)
        if bad:  # apply the others only
            keep = np.array([r for r in range(m) if r not in bad], dtype=int)
            seed = rows = seed[keep]
            t, row, variance, c = t[keep], row[keep], variance[keep], c[keep]
            index, k_rows = index[keep], k_rows[keep]
            seeds, idx = seed.tolist(), index.tolist()
        if not lockstep:
            a[seed, t] = row
        cs[seed, t] = c
        for s in seeds:
            n_obs[s] += 1
        span = self._span
        if span is not None and any(span.start <= i < span.stop for i in idx):
            # an uploaded entry is exact: W K loses w[:, p] K[p, :]
            self._wk[rows] -= self._w[seed, :, index][..., None] * k_rows[:, None]
            self._w[seed, :, index] = 0.0
        step = np.multiply(row, c[:, None], out=resid[: c.size])  # resid is spent
        if isinstance(rows, slice):  # in place in the views
            self.mean[rows] += step
            np.maximum(variance, 0.0, out=old)
        else:
            step += self.mean.take(seed, axis=0)
            self.mean[seed] = step
            self.variance[seed] = np.maximum(variance, 0.0, out=variance)

    def residual_variance(self, candidates) -> np.ndarray:
        """Error variance of the weighted sums of the targets after each candidate uploads.

        Entry (s, r, j) is w'S w for seed s's weight row r once its target
        ``candidates[s, j]`` (c) is observed, where S = Sigma - Sigma[:, c]
        Sigma[c, :] / (Sigma[c, c] + noise) is the rank-one Schur update of
        the seed's posterior covariance Sigma, and w has every observed
        target's entry, c's included, zeroed because an uploaded entry is
        exact.  Every selection policy scores candidates this way: one-hot
        rows give the variance left at single targets, an application's
        weights the error variance of its output.  Value-free: the
        covariance of a Gaussian does not depend on the measurement.

        ``candidates`` is (S, m), one row of targets per seed, and the rows
        scored are the ``weights`` given at construction; without them this
        raises ``ValueError``.  The scores come from W Sigma = W K - (W A') A
        over the span of the rows' nonzero columns, A the factor rows, once
        over the batch.  A seed holding as many observations as the fullest
        one (every seed of a lockstep round loop) scores bit-identically to a
        batch of its own, and one-hot rows as through a dense prior.
        """
        if self._w is None:
            raise ValueError("residual_variance scores the weights given at construction; "
                             "none were given")
        n_seeds, n = self.mean.shape
        cand = np.asarray(candidates, dtype=int)
        if cand.ndim != 2 or cand.shape[0] != n_seeds:
            raise ValueError(f"need one row of candidates per seed, got shape {cand.shape}")
        lo, hi = (int(cand.min()), int(cand.max())) if cand.size else (0, -1)
        if not (0 <= lo and hi < n):
            raise IndexError(f"candidate targets must lie in [0, {n})")
        w, span = self._w, self._span
        a = self._a[:, : max(self.n_observations)]
        s = (w[..., span] @ a[..., span].mT) @ a
        np.subtract(self._wk, s, out=s)  # rows of W Sigma, (S, k, n)
        own = np.vecdot(w[..., span], s[..., span])[..., None]
        at = cand[:, None, :] + self._row_at  # flat positions of each seed's candidates
        sc = s.take(at)
        dc = self.variance.take(cand + self._seed_at)[:, None, :]
        if lo < span.stop and span.start <= hi:  # a candidate may carry weight
            wc = w.take(at)  # each candidate's own weight, zeroed once it uploads
            wd = wc * dc
            own = own - wc * (2.0 * sc - wd)
            sc = sc - wd
        sc *= sc  # in place: a fresh array costs its page faults
        sc /= dc + self.noise_variance
        return np.subtract(own, sc, out=sc)

    def _weigh(self, weights) -> None:
        """Check ``weights`` and keep what :meth:`residual_variance` scores them
        from: their (S, k, n) copy W, whose uploaded columns ``_slot`` zeroes,
        the span of the rows' nonzero columns (first to last), W K, each
        seed's summed over 128-column blocks of its kernel rows in the span,
        and the flat offset of each seed's and row's first entry."""
        n_seeds, n = self.mean.shape
        w = np.asarray(weights, dtype=float)
        if (w.ndim not in (2, 3) or w.ndim == 3 and w.shape[0] != n_seeds
                or not w.shape[-2] or w.shape[-1] != n):
            raise ValueError(f"weights must be (k, {n}) or ({n_seeds}, k, {n}) rows with "
                             f"k >= 1, got shape {w.shape}")
        if not np.isfinite(w).all():
            raise ValueError(f"weights must be finite, got {w[~np.isfinite(w)][0]}")
        cols = np.flatnonzero(w.reshape(-1, n).any(axis=0))
        lo, hi = (int(cols[0]), int(cols[-1]) + 1) if cols.size else (0, 0)
        self._w = np.broadcast_to(w, (n_seeds, *w.shape[-2:])).copy()
        self._span = slice(lo, hi)
        self._wk = np.zeros(self._w.shape)
        # flat offsets of each seed's first target and of its rows' first entries
        self._seed_at = np.arange(0, n_seeds * n, n)[:, None]
        self._row_at = np.arange(0, self._w.size, n).reshape(self._w.shape[:2] + (1,))
        c = self._coords
        for s in range(n_seeds):
            for r in range(lo, hi, 128):
                blk = slice(r, min(r + 128, hi))
                self._wk[s] += self._w[s][:, blk] @ _sq_exp(
                    c[:, s, blk, None], c[:, s, None, :], self.params)
