import math

import numpy as np
import pytest

from pilotsim.workloads import (DurationModel, clipped_lognormal_mean,
                                make_preset, preset_names, solve_sigma)


def test_clipped_mean_matches_monte_carlo():
    rng = np.random.default_rng(0)
    for mu, sigma, lo, hi in [(3.0, 1.0, 0.1, 3582.6),
                              (2.0, 0.5, 0.1, 833.1),
                              (3.5, 1.5, 0.1, 263.9)]:
        sample = np.clip(rng.lognormal(mu, sigma, size=400_000), lo, hi)
        closed = clipped_lognormal_mean(mu, sigma, lo, hi)
        assert closed == pytest.approx(sample.mean(), rel=0.02)


def test_solve_sigma_inverts_mean():
    for mean, lo, hi in [(28.8, 0.1, 3582.6), (25.1, 0.1, 833.1),
                         (36.2, 0.1, 263.9)]:
        mu, sigma = solve_sigma(mean, lo, hi)
        assert clipped_lognormal_mean(mu, sigma, lo, hi) == pytest.approx(
            mean, rel=1e-6)
        assert mu == pytest.approx(0.5 * (math.log(lo) + math.log(hi)))


def test_solve_sigma_rejects_unattainable_mean():
    with pytest.raises(ValueError, match='attainable'):
        solve_sigma(10_000.0, 0.1, 3582.6)


@pytest.mark.parametrize('mean', [1.0, 60.0])
def test_an_unattainable_mean_fails_at_construction(mean):
    """Both ends: below the window's geometric center, above its midpoint;
    either is inside the clip window, so only the attainable range fails."""
    with pytest.raises(ValueError, match=r'target mean %g outside attainable '
                       r'range \[3\.162, 50\.05\]' % mean):
        DurationModel(kind='lognormal-truncated', mean=mean, min_clip=0.1,
                      max_clip=100.0)


@pytest.mark.parametrize('scale, match', [
    (1e300, r'clip window \[1e\+299, 3\.583e\+303\] too wide'),
    (1e308, 'all finite'),
])
def test_a_scale_whose_durations_cannot_be_drawn_fails_at_scaling(scale,
                                                                   match):
    """A mean or clip that overflows to inf, or a window so wide that the
    clipped-mean equation overflows, fails when the model is made, not
    when `sample` solves for sigma; a constant that overflows too."""
    model = make_preset('wf1-uc1').model
    with pytest.raises(ValueError, match=match):
        model.scaled(scale)
    with pytest.raises(ValueError, match='>= 0 and finite'):
        make_preset('wf3').model.scaled(1e308)


def test_a_constant_model_draws_no_random_number(monkeypatch):
    def no_generator(seed):
        raise AssertionError('a constant model built a generator')
    monkeypatch.setattr(np.random, 'default_rng', no_generator)
    durations = DurationModel(kind='constant', constant=2.5).sample(3, seed=1)
    assert durations.tolist() == [2.5, 2.5, 2.5]


@pytest.mark.parametrize('name,mean,lo,hi', [
    ('wf1-uc1', 28.8, 0.1, 3582.6),
    ('wf1-uc2', 25.1, 0.1, 833.1),
    ('wf1-uc3', 36.2, 0.1, 263.9),
])
def test_preset_sample_statistics(name, mean, lo, hi):
    preset = make_preset(name)
    sample = preset.model.sample(100_000, seed=1)
    assert sample.mean() == pytest.approx(mean, rel=0.05)
    assert sample.min() >= lo and sample.max() <= hi


def test_preset_shapes():
    uc3 = make_preset('wf1-uc3')
    assert uc3.bundle_size == 16 and uc3.gpus == 1
    assert make_preset('wf1-uc1').bundle_size == 1
    wf3 = make_preset('wf3')
    assert wf3.gpus == 1 and wf3.cores == 1
    assert make_preset('wf4').ranks == 36
    assert 'wf1-uc2' in preset_names()
    with pytest.raises(KeyError):
        make_preset('wf9')


def test_sampling_is_seed_deterministic():
    model = make_preset('wf1-uc1').model
    a = model.sample(1000, seed=5)
    b = model.sample(1000, seed=5)
    c = model.sample(1000, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_constant_model_and_unknown_kinds():
    const = DurationModel(kind='constant', constant=320.0)
    assert np.all(const.sample(4) == 320.0)
    with pytest.raises(ValueError):
        DurationModel(kind='constant', constant=-1.0)
    with pytest.raises(ValueError, match='unknown duration model kind'):
        DurationModel(kind='empirical-table')


def test_scaled_rescales_time_axis():
    model = make_preset('wf1-uc1').model.scaled(0.01)
    assert model.mean == pytest.approx(0.288)
    assert model.max_clip == pytest.approx(35.826)
    sample = model.sample(50_000, seed=2)
    assert sample.mean() == pytest.approx(0.288, rel=0.05)
