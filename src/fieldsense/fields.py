"""Sensor fields: the ground-truth container plus synthetic generators and
CSV ingestion.

Each generator draws sensor locations uniformly over its domain, evaluates a
smooth mean surface at them, and adds iid Gaussian measurement noise.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .gp import as_points

# Centers and quadratic forms of the three-bump 2-D surface.  A1 and A2 are
# asymmetric as given; the quadratic form only sees their symmetric parts.
BUMP_CENTERS = np.array([[0.1, 0.9], [0.5, 0.6], [0.9, 0.7]])
BUMP_FORMS = np.array(
    [
        [[4.0, -6.0], [-1.0, 6.0]],
        [[8.0, 1.0], [5.0, 4.0]],
        [[8.0, -4.1], [-4.1, 20.0]],
    ]
)


@dataclass
class SensorField:
    """A deployed sensor set: locations, latent means, and noisy measurements.

    ``measurements[l] = true_means[l] + n_l`` with ``n_l ~ N(0, noise_variance)``.
    For ingested data without ground truth, ``true_means`` equals
    ``measurements``.
    """

    locations: np.ndarray
    true_means: np.ndarray
    measurements: np.ndarray
    noise_variance: float

    def __post_init__(self):
        self.locations = as_points(self.locations)
        self.true_means = np.asarray(self.true_means, dtype=float).ravel()
        self.measurements = np.asarray(self.measurements, dtype=float).ravel()
        n = self.locations.shape[0]
        if n < 1:
            raise ValueError("a sensor field needs at least one sensor")
        if self.true_means.shape[0] != n or self.measurements.shape[0] != n:
            raise ValueError("locations, true_means and measurements disagree in length")
        if not (np.all(np.isfinite(self.true_means)) and np.all(np.isfinite(self.measurements))):
            raise ValueError("field values contain non-finite entries")
        if not (self.noise_variance > 0 and math.isfinite(self.noise_variance)):
            raise ValueError(f"noise_variance must be positive, got {self.noise_variance}")

    @property
    def n_sensors(self) -> int:
        return self.locations.shape[0]

    @property
    def dim(self) -> int:
        return self.locations.shape[1]


def smooth_1d_mean(x):
    """sin^2(x/3) - cos(x/2)/5, the 1-D benchmark surface on [0, 10]."""
    x = np.asarray(x, dtype=float)
    return np.sin(x / 3.0) ** 2 - 0.2 * np.cos(x / 2.0)


def bump_2d_mean(xy):
    """Average of three anisotropic Gaussian bumps, the 2-D surface on [0, 1]^2."""
    pts = as_points(xy, dim=2)
    total = np.zeros(pts.shape[0])
    for center, form in zip(BUMP_CENTERS, BUMP_FORMS):
        v = pts - center
        total += np.exp(-np.einsum("ni,ij,nj->n", v, form, v))
    return total / 3.0


def gen_1d(L: int, sigma_sq: float, rng: np.random.Generator) -> SensorField:
    """1-D field: L sensors uniform on [0, 10] measuring the smooth benchmark."""
    x = rng.uniform(0.0, 10.0, size=L)
    means = smooth_1d_mean(x)
    noise = rng.normal(0.0, math.sqrt(sigma_sq), size=L)
    return SensorField(x.reshape(-1, 1), means, means + noise, sigma_sq)


def gen_2d(L: int, sigma_sq: float, rng: np.random.Generator) -> SensorField:
    """2-D field: L sensors uniform on [0, 1]^2 measuring the three-bump surface."""
    xy = rng.uniform(0.0, 1.0, size=(L, 2))
    means = bump_2d_mean(xy)
    noise = rng.normal(0.0, math.sqrt(sigma_sq), size=L)
    return SensorField(xy, means, means + noise, sigma_sq)


def sample_sinusoid(T: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw coefficients (amplitudes, frequencies, phases) of a random sinusoid sum.

    amplitudes ~ N(0, 1), frequencies ~ Unif(0, 1/2), phases ~ Unif(0, 2*pi).
    """
    if T < 1:
        raise ValueError(f"T must be at least 1, got {T}")
    amps = rng.normal(0.0, 1.0, size=T)
    freqs = rng.uniform(0.0, 0.5, size=T)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=T)
    return amps, freqs, phases


def sinusoid_mean(x, amps, freqs, phases):
    """sqrt(2/T) * sum_i amps_i * sin(2*pi*freqs_i*x + phases_i)."""
    x = np.asarray(x, dtype=float)
    T = len(amps)
    terms = amps * np.sin(2.0 * math.pi * np.outer(x, freqs) + phases)
    return math.sqrt(2.0 / T) * terms.sum(axis=-1)


def gen_random_sinusoid(
    L: int, T: int, sigma_sq: float, rng: np.random.Generator
) -> SensorField:
    """1-D field with a freshly drawn random-sinusoid mean, sensors on [0, 10].

    The mean surface has zero expectation and unit variance pointwise over
    coefficient draws.
    """
    amps, freqs, phases = sample_sinusoid(T, rng)
    x = rng.uniform(0.0, 10.0, size=L)
    means = sinusoid_mean(x, amps, freqs, phases)
    noise = rng.normal(0.0, math.sqrt(sigma_sq), size=L)
    return SensorField(x.reshape(-1, 1), means, means + noise, sigma_sq)


FIELD_KINDS = ("1d", "2d", "sinusoid", "csv")

# Each synthetic surface is defined on a fixed domain.
FIELD_DOMAINS = {"1d": ((0.0, 10.0),), "2d": ((0.0, 1.0), (0.0, 1.0)),
                 "sinusoid": ((0.0, 10.0),)}


@dataclass(frozen=True)
class FieldSpec:
    """Declarative description of a field: kind plus kind-specific parameters.

    ``T`` applies to the sinusoid kind, ``path`` to csv.  The domain is
    intrinsic to each surface definition (see FIELD_DOMAINS).
    """

    kind: str
    L: int = 100
    noise_variance: float = 0.1
    T: int = 10
    path: str | None = None

    def __post_init__(self):
        if self.kind not in FIELD_KINDS:
            raise ValueError(f"kind must be one of {FIELD_KINDS}, got {self.kind!r}")
        if self.L < 1:
            raise ValueError(f"L must be at least 1, got {self.L}")
        if not (self.noise_variance > 0 and math.isfinite(self.noise_variance)):
            raise ValueError(f"noise_variance must be positive, got {self.noise_variance}")
        if self.kind == "sinusoid" and self.T < 1:
            raise ValueError(f"T must be at least 1, got {self.T}")
        if self.kind == "csv" and not self.path:
            raise ValueError("csv fields need a path")

    @property
    def domain(self):
        return FIELD_DOMAINS.get(self.kind)

    def build(self, rng: np.random.Generator) -> SensorField:
        if self.kind == "1d":
            return gen_1d(self.L, self.noise_variance, rng)
        if self.kind == "2d":
            return gen_2d(self.L, self.noise_variance, rng)
        if self.kind == "sinusoid":
            return gen_random_sinusoid(self.L, self.T, self.noise_variance, rng)
        return load_csv(self.path, self.noise_variance)


def load_csv(path, noise_variance: float) -> SensorField:
    """Load a sensor field from a CSV of 2 or 3 numeric columns: x[,y],value.

    An optional single header row is skipped automatically.  Ground truth is
    unknown for ingested data, so ``true_means`` is set to the measurements
    and ``noise_variance`` must be supplied by the caller.  Exact duplicate
    locations produce a warning (the noise ridge keeps the GP solve alive).
    """
    rows = []
    n_cols = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            cells = [c.strip() for c in line.split(",")]
            try:
                values = [float(c) for c in cells]
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise ValueError(
                    f"{path}: line {lineno}: non-numeric cell in {cells!r}"
                ) from None
            if len(values) not in (2, 3):
                raise ValueError(
                    f"{path}: line {lineno}: expected 2 or 3 columns, got {len(values)}"
                )
            if n_cols is None:
                n_cols = len(values)
            elif len(values) != n_cols:
                raise ValueError(
                    f"{path}: line {lineno}: expected {n_cols} columns, got {len(values)}"
                )
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.asarray(rows)
    locs = data[:, :-1]
    measurements = data[:, -1]
    # return_index: the plain form imports numpy.ma, tens of ms in a fresh interpreter
    if len(np.unique(locs, axis=0, return_index=True)[0]) < len(locs):
        warnings.warn(f"{path}: duplicate sensor locations present", stacklevel=2)
    return SensorField(locs, measurements.copy(), measurements, noise_variance)
