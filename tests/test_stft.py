import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftbeam.stft import SpectralFrameTensor, StftConfig, analyze, synthesize


def residual_db(reference, reconstructed, guard):
    ref = reference[guard:-guard]
    err = reconstructed[guard:len(reference) - guard] - ref
    return 10.0 * np.log10(np.sum(err ** 2) / np.sum(ref ** 2))


def speech_like(samples, rate, seed=0):
    """Harmonic tone with vibrato and an amplitude envelope, vaguely vowel-ish."""
    rng = np.random.default_rng(seed)
    t = np.arange(samples) / rate
    pitch = 140.0 + 20.0 * np.sin(2.0 * np.pi * 0.7 * t)
    phase = 2.0 * np.pi * np.cumsum(pitch) / rate
    tone = sum(np.sin(k * phase) / k for k in range(1, 9))
    envelope = 0.4 + 0.6 * np.abs(np.sin(2.0 * np.pi * 1.3 * t))
    return envelope * tone + 0.01 * rng.standard_normal(samples)


# Each case is sqrt-Hann at half overlap; the ids name the window, fft_size and hop.
SIZES = [pytest.param(1024, 512, id="sqrt_hann-1024-512"),
         pytest.param(512, 256, id="sqrt_hann-512-256")]


def sqrt_hann_transform(k, fft_size):
    """Closed-form DFT at bin k of the periodic sqrt-Hann window sin(pi n / N):
    sin(pi/N) / (cos(2 pi k/N) - cos(pi/N)), real since the window is even."""
    return np.sin(np.pi / fft_size) / (np.cos(2.0 * np.pi * k / fft_size)
                                       - np.cos(np.pi / fft_size))


class TestConfig:
    def test_default_is_valid(self):
        cfg = StftConfig()
        assert cfg.bin_count == 513

    @pytest.mark.parametrize("fft_size,hop", SIZES)
    def test_supported_pairs_satisfy_overlap_add(self, fft_size, hop):
        cfg = StftConfig(fft_size=fft_size, hop=hop)
        assert np.abs(cfg.overlap_add_weight() - 1.0).max() < 1e-10

    def test_non_reconstructing_pair_rejected(self):
        # At a quarter hop the squared sqrt-Hann windows overlap-add to 2, not 1.
        with pytest.raises(ValueError, match="overlap-add"):
            StftConfig(fft_size=1024, hop=256)


class TestAnalyze:
    def test_zero_input_gives_zero_tensor(self):
        cfg = StftConfig()
        tensor = analyze(np.zeros(8192), cfg)
        assert not tensor.frames.any()

    def test_frame_count(self):
        cfg = StftConfig(fft_size=512, hop=256)
        tensor = analyze(np.zeros(5000), cfg)
        assert tensor.frame_count == (5000 - 512) // 256 + 1

    def test_short_signal_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            analyze(np.zeros(100), StftConfig())

    def test_impulse_flat_magnitude(self):
        # An impulse at n0 of the first frame has |X[k]| = sin(pi n0 / N) in every bin.
        cfg = StftConfig(fft_size=256, hop=128)
        x = np.zeros(1024)
        x[100] = 1.0
        tensor = analyze(x, cfg)
        mags = np.abs(tensor.frames[0, :, 0])
        np.testing.assert_allclose(mags, np.sin(np.pi * 100 / 256), atol=1e-12)

    def test_sinusoid_peaks_at_its_bin(self):
        # A cosine at bin k0 gives (W[k - k0] + W[k + k0]) / 2 in every frame
        # (k0 * hop is a whole number of periods), largest at k0.
        cfg = StftConfig(fft_size=256, hop=128)
        k0 = 32
        n = np.arange(2048)
        x = np.cos(2.0 * np.pi * k0 * n / 256)
        frames = analyze(x, cfg).frames[:, :, 0]
        k = np.arange(cfg.bin_count)
        expected = 0.5 * (sqrt_hann_transform(k - k0, 256) + sqrt_hann_transform(k + k0, 256))
        np.testing.assert_allclose(frames, np.broadcast_to(expected, frames.shape), atol=1e-9)
        assert (np.argmax(np.abs(frames), axis=1) == k0).all()

    def test_linearity(self):
        cfg = StftConfig()
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal((2, 8192))
        lhs = analyze(0.7 * x - 1.3 * y, cfg).frames
        rhs = 0.7 * analyze(x, cfg).frames - 1.3 * analyze(y, cfg).frames
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_energy_matches_window_weighted_signal_energy(self):
        # Per-frame Parseval plus the overlap-add of the squared analysis
        # window ties the tensor energy to the weighted signal energy.
        cfg = StftConfig()
        rng = np.random.default_rng(2)
        x = rng.standard_normal(16000)
        tensor = analyze(x, cfg)
        sided = np.full(cfg.bin_count, 2.0)
        sided[0] = sided[-1] = 1.0
        tensor_energy = np.sum(sided[None, :, None] * np.abs(tensor.frames) ** 2) / cfg.fft_size
        weight = np.zeros(len(x))
        for t in range(tensor.frame_count):
            start = t * cfg.hop
            weight[start:start + cfg.fft_size] += cfg.window ** 2
        assert tensor_energy == pytest.approx(np.sum(weight * x ** 2), rel=1e-6)


def valid_configs():
    """StftConfigs that pass the overlap-add check: every even frame length
    up to 512 at half overlap."""
    return st.integers(1, 256).map(lambda half: StftConfig(fft_size=2 * half, hop=half))


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(cfg=valid_configs(), extra=st.integers(0, 600), channels=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_random_valid_config_reconstructs_interior(self, cfg, extra, channels, seed):
        x = np.random.default_rng(seed).standard_normal((3 * cfg.fft_size + extra, channels))
        tensor = analyze(x, cfg)
        assert tensor.frame_count == (len(x) - cfg.fft_size) // cfg.hop + 1
        y = synthesize(tensor, cfg)
        assert y.shape == ((tensor.frame_count - 1) * cfg.hop + cfg.fft_size, channels)
        guard = cfg.fft_size
        np.testing.assert_allclose(y[guard:len(y) - guard], x[guard:len(y) - guard],
                                   rtol=0, atol=1e-10 * np.abs(x).max())

    @pytest.mark.parametrize("fft_size,hop", SIZES)
    def test_white_noise_reconstruction(self, fft_size, hop):
        cfg = StftConfig(fft_size=fft_size, hop=hop)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((160000, 2))
        y = synthesize(analyze(x, cfg), cfg)
        for ch in range(2):
            assert residual_db(x[:, ch], y[:, ch], fft_size) < -100.0

    def test_speech_like_reconstruction(self):
        cfg = StftConfig()
        x = speech_like(160000, 16000)
        y = synthesize(analyze(x, cfg), cfg)[:, 0]
        assert residual_db(x, y, cfg.fft_size) < -100.0

    def test_interior_relative_error_tight(self):
        cfg = StftConfig()
        rng = np.random.default_rng(4)
        x = rng.standard_normal(32768)
        y = synthesize(analyze(x, cfg), cfg)[:, 0]
        guard = cfg.fft_size
        err = np.abs(y[guard:len(x) - guard] - x[guard:-guard]).max()
        assert err < 1e-10 * np.abs(x).max()

    def test_zeroed_bins_give_silence(self):
        cfg = StftConfig()
        rng = np.random.default_rng(5)
        tensor = analyze(rng.standard_normal(8192), cfg)
        silent = SpectralFrameTensor(np.zeros_like(tensor.frames), tensor.sample_rate,
                                     tensor.fft_size, tensor.hop)
        assert not synthesize(silent, cfg).any()

    def test_config_mismatch_rejected(self):
        tensor = analyze(np.zeros(8192), StftConfig())
        with pytest.raises(ValueError, match="fft_size"):
            synthesize(tensor, StftConfig(fft_size=512, hop=256))


class TestTensor:
    def test_bin_grid(self):
        tensor = analyze(np.zeros(4096), StftConfig(), sample_rate=16000)
        assert tensor.bin_hz[0] == 0.0
        assert tensor.bin_hz[-1] == pytest.approx(8000.0)
        np.testing.assert_allclose(tensor.bin_omega, 2.0 * np.pi * tensor.bin_hz)

    def test_bin_count_must_match_fft_size(self):
        with pytest.raises(ValueError, match="bin count"):
            SpectralFrameTensor(np.zeros((4, 100, 2), complex), 16000, 1024, 512)
