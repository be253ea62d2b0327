"""Synthetic task-duration generators with long-tailed distributions.

The docking-style workloads use a clipped lognormal: samples are drawn from
lognormal(mu, sigma) and clipped into [min_clip, max_clip].  Given a target
post-clip mean, sigma is solved by bisection on the closed-form clipped-mean
equation, with mu at the geometric center of the clip window.
"""

import math
from dataclasses import dataclass, replace

import numpy as np


def _phi(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def clipped_lognormal_mean(mu, sigma, lo, hi):
    """E[clip(X, lo, hi)] for X ~ lognormal(mu, sigma), closed form."""
    a = (math.log(lo) - mu) / sigma
    b = (math.log(hi) - mu) / sigma
    body = math.exp(mu + sigma * sigma / 2.0) * (_phi(b - sigma) - _phi(a - sigma))
    return lo * _phi(a) + body + hi * (1.0 - _phi(b))


def _bisect(fn, lo, hi, tol=1e-12, iters=200):
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if abs(hi - lo) < tol * max(1.0, abs(mid)):
            return mid
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _centered_mu(mean, lo, hi):
    """mu at the geometric center of the clip window; ValueError unless
    some sigma gives the clipped mean `mean`: it runs from the geometric
    center (sigma -> 0) to the window's midpoint (sigma -> inf)."""
    mu = 0.5 * (math.log(lo) + math.log(hi))
    gm = math.exp(mu)
    if not gm <= mean <= 0.5 * (lo + hi):
        raise ValueError('target mean %.4g outside attainable range [%.4g, %.4g]'
                         % (mean, gm, 0.5 * (lo + hi)))
    return mu


def solve_sigma(mean, lo, hi):
    """Sigma such that the clipped mean hits `mean`, with mu fixed at the
    geometric center of the clip window."""
    mu = _centered_mu(mean, lo, hi)
    err = lambda s: clipped_lognormal_mean(mu, s, lo, hi) - mean
    sigma = _bisect(err, 1e-9, 30.0, tol=1e-9)
    return mu, sigma


@dataclass(frozen=True)
class DurationModel:
    """Task-duration generator; immutable, safe to share."""
    kind: str = 'constant'           # constant | lognormal-truncated
    mean: float = None               # target post-clip mean (lognormal)
    min_clip: float = None
    max_clip: float = None
    constant: float = None           # seconds (constant kind)

    def __post_init__(self):
        if self.kind == 'constant':
            if self.constant is None or not 0 <= self.constant < math.inf:
                raise ValueError('constant duration must be >= 0 and finite')
        elif self.kind == 'lognormal-truncated':
            if None in (self.mean, self.min_clip, self.max_clip):
                raise ValueError('lognormal model needs mean and clips')
            if not 0 < self.min_clip <= self.mean <= self.max_clip < math.inf:
                raise ValueError('need 0 < min_clip <= mean <= max_clip, '
                                 'all finite')
            try:    # what `sample` solves, so that it cannot fail there
                solve_sigma(self.mean, self.min_clip, self.max_clip)
            except OverflowError:
                raise ValueError('clip window [%.4g, %.4g] too wide: the '
                                 'clipped mean overflows' % (
                                     self.min_clip, self.max_clip)) from None
        else:
            raise ValueError('unknown duration model kind: %s' % self.kind)

    def sample(self, n, seed=0):
        """Draw n durations (seconds); deterministic per seed."""
        if n < 1:
            raise ValueError('n must be >= 1')
        if self.kind == 'constant':
            return np.full(n, float(self.constant))
        mu, sigma = solve_sigma(self.mean, self.min_clip, self.max_clip)
        raw = np.random.default_rng(seed).lognormal(mean=mu, sigma=sigma,
                                                    size=n)
        return np.clip(raw, self.min_clip, self.max_clip)

    def scaled(self, factor):
        """Rescale the time axis (mean and clips) by `factor`."""
        if self.kind == 'constant':
            return replace(self, constant=self.constant * factor)
        return replace(self, mean=self.mean * factor,
                       min_clip=self.min_clip * factor,
                       max_clip=self.max_clip * factor)


@dataclass(frozen=True)
class WorkloadPreset:
    name: str
    item_count: int
    model: DurationModel
    bundle_size: int = 1
    cores: int = 1              # per rank
    gpus: int = 0
    ranks: int = 1

    def __post_init__(self):
        if self.item_count < 1:
            raise ValueError('item_count must be >= 1')
        if self.bundle_size < 1:
            raise ValueError('bundle_size must be >= 1')

    @property
    def slot_kind(self):
        """The overlay slot one bundle holds: a GPU task's is its GPU."""
        return 'gpus' if self.gpus else 'cores'

    def bundles(self, seed):
        """Group the items into execution bundles of bundle_size; returns
        one id, one sampled duration (seconds) and one credit per bundle,
        the last bundle credited with the remainder."""
        n = math.ceil(self.item_count / self.bundle_size)
        ids = ['%s-%06d' % (self.name, i) for i in range(n)]
        credits = [self.bundle_size] * (n - 1)
        credits.append(self.item_count - self.bundle_size * (n - 1))
        return ids, self.model.sample(n, seed=seed), credits


# Docking-time statistics (seconds): long-tailed, clipped lognormal fits.
_PRESETS = {
    # CPU docking, one ligand per core-task
    'wf1-uc1': dict(item_count=10_000, bundle_size=1, cores=1,
                    model=DurationModel(kind='lognormal-truncated',
                                        mean=28.8, min_clip=0.1, max_clip=3582.6)),
    'wf1-uc2': dict(item_count=10_000, bundle_size=1, cores=1,
                    model=DurationModel(kind='lognormal-truncated',
                                        mean=25.1, min_clip=0.1, max_clip=833.1)),
    # GPU docking, 16 ligands bundled into one GPU computation
    'wf1-uc3': dict(item_count=10_000, bundle_size=16, cores=1, gpus=1,
                    model=DurationModel(kind='lognormal-truncated',
                                        mean=36.2, min_clip=0.1, max_clip=263.9)),
    # GPU-resident MD-style task: 1 GPU + 1 core
    'wf3': dict(item_count=512, bundle_size=1, cores=1, gpus=1,
                model=DurationModel(kind='constant', constant=320.0)),
    # CPU-resident MPI task: 36 single-core ranks
    'wf4': dict(item_count=32, bundle_size=1, cores=1, ranks=36,
                model=DurationModel(kind='constant', constant=320.0)),
}


def make_preset(name, item_count=None):
    if name not in _PRESETS:
        raise KeyError('unknown workload preset: %s' % name)
    spec = dict(_PRESETS[name])
    if item_count is not None:
        spec['item_count'] = item_count
    return WorkloadPreset(name=name, **spec)


def preset_names():
    return sorted(_PRESETS)
