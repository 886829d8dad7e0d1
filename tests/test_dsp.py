import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegpipe import dataio, dsp
from eegpipe.errors import ConfigError, DataError, NumericError


def analytic_bandpass_magnitude(f, low, high, fs, order):
    """Analytic Butterworth bandpass magnitude after bilinear pre-warping.

    Independent oracle: |H(f)| = 1/sqrt(1 + ((W^2-w0^2)/(W*B))^(2n)) with
    W the pre-warped analog frequency of f.
    """
    n = order // 2
    wl = 2 * fs * np.tan(np.pi * low / fs)
    wh = 2 * fs * np.tan(np.pi * high / fs)
    w0 = np.sqrt(wl * wh)
    bw = wh - wl
    W = 2 * fs * np.tan(np.pi * np.asarray(f, dtype=float) / fs)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = (W**2 - w0**2) / (W * bw)
    x = np.where(W == 0, np.inf, x)
    return 1.0 / np.sqrt(1.0 + x ** (2 * n))


def sos_magnitude(coeffs, f, fs):
    """Evaluate the cascade frequency response magnitude directly."""
    z = np.exp(2j * np.pi * np.asarray(f, dtype=float) / fs)
    h = np.ones_like(z)
    for b0, b1, b2, a1, a2 in coeffs.sections:
        h *= (b0 + b1 / z + b2 / z**2) / (1 + a1 / z + a2 / z**2)
    return np.abs(h)


class TestButterworthDesign:
    def test_matches_analytic_magnitude(self):
        coeffs = dsp.design_butterworth_bandpass(0.5, 45.0, 256.0, 4)
        probe = np.linspace(0.1, 127.9, 100)
        got = sos_magnitude(coeffs, probe, 256.0)
        want = analytic_bandpass_magnitude(probe, 0.5, 45.0, 256.0, 4)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_dc_fully_rejected(self):
        coeffs = dsp.design_butterworth_bandpass(0.5, 45.0, 256.0, 4)
        # z = 1: numerator b0+b1+b2 of each section is exactly zero
        for b0, b1, b2, _, _ in coeffs.sections:
            assert b0 + b1 + b2 == 0.0
        assert sos_magnitude(coeffs, np.array([0.0]), 256.0)[0] == 0.0

    def test_cutoff_gain_is_3db(self):
        coeffs = dsp.design_butterworth_bandpass(0.5, 45.0, 256.0, 4)
        for edge in (0.5, 45.0):
            assert abs(sos_magnitude(coeffs, [edge], 256.0)[0] - 2**-0.5) < 1e-3

    def test_center_frequency_near_unity(self):
        coeffs = dsp.design_butterworth_bandpass(0.5, 45.0, 256.0, 4)
        assert sos_magnitude(coeffs, [np.sqrt(0.5 * 45.0)], 256.0)[0] >= 0.99

    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    @pytest.mark.parametrize("band", [(0.5, 45.0), (4.0, 8.0), (13.0, 30.0)])
    def test_all_designs_stable(self, order, band):
        coeffs = dsp.design_butterworth_bandpass(band[0], band[1], 256.0, order)
        for _, _, _, a1, a2 in coeffs.sections:
            assert np.all(np.abs(np.roots([1.0, a1, a2])) < 1.0)

    def test_invalid_band_edges(self):
        with pytest.raises(ConfigError):
            dsp.design_butterworth_bandpass(45.0, 0.5, 256.0, 4)
        with pytest.raises(ConfigError):
            dsp.design_butterworth_bandpass(0.5, 200.0, 256.0, 4)

    # at these a section's 1 + a1 + a2 is exactly 0: a root at z = 1
    @pytest.mark.parametrize("low,fs", [(1e-7, 256.0), (1e-9, 256.0), (0.5, 1e9), (0.5, 1e300)])
    def test_design_with_a_root_at_one_is_unstable(self, low, fs):
        with pytest.raises(NumericError, match="unstable filter section"):
            dsp.design_butterworth_bandpass(low, 45.0, fs, 4)


def section(a1, a2):
    return dsp.FilterCoefficients([(1.0, 0.0, -1.0, a1, a2)])


# the a1, a2 of the first section that design_butterworth_bandpass(1e-9, 45.0,
# 256.0, 4) forms: 1 + a1 + a2 is exactly 0, a root at z = 1, though LAPACK's
# eigenvalues put both roots just inside the unit circle
ROOT_AT_ONE = (-1.99999999996529, 0.99999999996529)


class TestSectionStability:
    def test_agrees_with_roots_away_from_the_boundary(self):
        rng = np.random.default_rng(0)
        stable = unstable = 0
        for a1, a2 in zip(rng.uniform(-2.2, 2.2, 4000), rng.uniform(-1.2, 1.2, 4000)):
            radius = np.max(np.abs(np.roots([1.0, a1, a2])))
            if abs(radius - 1.0) < 1e-9:
                continue
            if radius < 1.0:
                section(a1, a2)
                stable += 1
            else:
                with pytest.raises(NumericError, match="unstable filter section"):
                    section(a1, a2)
                unstable += 1
        assert stable > 1000 and unstable > 1000

    @pytest.mark.parametrize("a1,a2", [(-2.0, 1.0), ROOT_AT_ONE, (0.0, 1.0), (0.0, -1.0),
                                       (0.5, 1.0), (1.5, -1.0), (2.0, 1.0), (-1.0, 0.0),
                                       (float("nan"), 0.5), (0.0, float("nan")),
                                       (float("inf"), 0.5)])
    def test_a_root_on_or_beyond_the_unit_circle_is_unstable(self, a1, a2):
        with pytest.raises(NumericError, match="unstable filter section"):
            section(a1, a2)

    @pytest.mark.parametrize("a1,a2", [(0.0, np.nextafter(1.0, 0.0)),
                                       (0.0, np.nextafter(-1.0, 0.0)),
                                       (np.nextafter(-1.0, 0.0), 0.0),
                                       (-1.9999999999999996, 0.9999999999999998)])
    def test_roots_just_inside_the_unit_circle_are_stable(self, a1, a2):
        section(a1, a2)

    # the gain of this design underflows its normalization to inf, while its
    # first section's poles are stable
    @pytest.mark.parametrize("coeffs", [[(float("inf"), 0.0, -float("inf"), -0.5, 0.2)],
                                        [(1.0, float("nan"), 0.0, -0.5, 0.2)],
                                        (1e-300, 45.0, 256.0, 8)], ids=["inf", "nan", "design"])
    def test_a_non_finite_coefficient_is_numeric_error(self, coeffs):
        with pytest.raises(NumericError, match="non-finite filter section"):
            if isinstance(coeffs, list):
                dsp.FilterCoefficients(coeffs)
            else:
                dsp.design_butterworth_bandpass(*coeffs)

    def test_the_root_at_one_is_exact(self):
        a1, a2 = ROOT_AT_ONE
        assert 1 + Fraction(a1) + Fraction(a2) == 0


# a bandpass design has b1 = 0, so some reorderings of a step cannot show on it
GENERAL_FILTER = dsp.FilterCoefficients(
    [(0.2, 0.3, -0.1, -1.2, 0.5), (0.7, -0.4, 0.25, 0.3, 0.2)])

def cramer_step_state(sections):
    """Each section's unit-step steady state by Cramer's rule on
    (I - A) zi = c in rationals, times the exact DC gain of the sections
    before it, rounded once."""
    states, scale = [], Fraction(1)
    for b0, b1, b2, a1, a2 in (map(Fraction, s) for s in sections):
        c1, c2 = b1 - a1 * b0, b2 - a2 * b0
        det = (1 + a1) + a2  # det [[1 + a1, -1], [a2, 1]]
        z1, z2 = (c1 + c2) / det, ((1 + a1) * c2 - a2 * c1) / det
        states.append([float(z1 * scale), float(z2 * scale)])
        scale *= (b0 + b1 + b2) / det
    return states


BANDPASS_GRID = [(lo, hi, fs, order) for order in (2, 4, 6, 8)
                 for lo, hi in [(0.5, 45.0), (4.0, 8.0), (13.0, 30.0), (1.0, 100.0),
                                (0.1, 127.0), (30.0, 45.0)]
                 for fs in (128.0, 256.0, 512.0, 1000.0) if hi < fs / 2]
GRID_IDS = ["{}-{}Hz@{}-o{}".format(*design) for design in BANDPASS_GRID]


class TestSectionStepState:
    @pytest.mark.parametrize("coeffs", [*(dsp.design_butterworth_bandpass(*design)
                                          for design in BANDPASS_GRID), GENERAL_FILTER],
                             ids=[*GRID_IDS, "general"])
    def test_equals_cramers_rule_rounded_once(self, coeffs):
        got = [list(z) for z in coeffs.step_states]
        assert got == cramer_step_state(coeffs.sections)

    @pytest.mark.parametrize("design", BANDPASS_GRID, ids=GRID_IDS)
    def test_bandpass_gets_minus_b0_then_zeros(self, design):
        coeffs = dsp.design_butterworth_bandpass(*design)
        first, *rest = coeffs.step_states
        b0 = coeffs.sections[0][0]
        assert list(first) == [-b0, -b0]
        assert all(list(z) == [0.0, 0.0] for z in rest)

    def test_filtering_solves_no_rational_arithmetic(self, monkeypatch):
        coeffs = dsp.design_butterworth_bandpass(0.5, 45.0, 256.0, 4)
        x = np.random.default_rng(3).normal(size=(3, 512))
        want = dsp.filtfilt(coeffs, x)

        def no_fraction(*args):
            raise AssertionError("a Fraction was made while filtering")

        monkeypatch.setattr(dsp, "Fraction", no_fraction)
        assert np.array_equal(dsp.filtfilt(coeffs, x), want)


def reference_sosfilt(coeffs, x):
    """The per-sample DF2T loop: in place along the last axis, returns x.
    Run on an np.longdouble array, it is the extended-precision oracle."""
    zi = [np.multiply.outer(np.asarray(z, dtype=x.dtype), x[..., 0])
          for z in coeffs.step_states]
    for section, (z1, z2) in zip(coeffs.sections, zi):
        b0, b1, b2, a1, a2 = np.asarray(section, dtype=x.dtype)
        for i in range(x.shape[-1]):
            xi = x[..., i]
            yi = b0 * xi + z1
            z1 = b1 * xi - a1 * yi + z2
            z2 = b2 * xi - a2 * yi
            x[..., i] = yi
    return x


# sosfilt's error against the extended-precision loop, relative to each
# signal's largest output; the worst case measured is about 4e-12 (order 8)
SOSFILT_BOUND = 1e-11


def relative_errors(got, want):
    """max|got - want| / max|want| per signal along the last axis."""
    return np.max(np.abs(got - want), axis=-1) / np.max(np.abs(want), axis=-1)


@pytest.fixture(scope="module")
def eeg_filter():
    return dsp.design_butterworth_bandpass(0.5, 45.0, 256.0, 4)



class TestFiltfilt:
    def test_constant_input_nulled(self, eeg_filter):
        y = dsp.filtfilt(eeg_filter, np.full(512, 7.3))
        assert np.max(np.abs(y)) < 1e-6

    def test_inband_sine_amplitude_and_lag(self, eeg_filter):
        fs = 256.0
        t = np.arange(4096) / fs
        x = np.sin(2 * np.pi * 10.0 * t)
        y = dsp.filtfilt(eeg_filter, x)
        mid = slice(1024, -1024)
        amp = np.sqrt(2.0 * np.mean(y[mid] ** 2))
        assert abs(amp - 1.0) < 0.02
        xc = np.correlate(y[mid], x[mid], "full")
        assert np.argmax(xc) == len(x[mid]) - 1  # zero lag

    def test_linearity(self, eeg_filter):
        rng = np.random.default_rng(0)
        x1, x2 = rng.normal(size=400), rng.normal(size=400)
        a, b = 2.5, -0.7
        lhs = dsp.filtfilt(eeg_filter, a * x1 + b * x2)
        rhs = a * dsp.filtfilt(eeg_filter, x1) + b * dsp.filtfilt(eeg_filter, x2)
        assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs)) < 1e-9

    def test_time_reversal_symmetry(self):
        # the short padding leaves edge transients, which a well-damped band
        # decays within 0.5 s (128 samples); the interior must agree at 1e-9
        coeffs = dsp.design_butterworth_bandpass(20.0, 60.0, 256.0, 4)
        rng = np.random.default_rng(1)
        x = rng.normal(size=600)
        fwd = dsp.filtfilt(coeffs, x)
        rev = dsp.filtfilt(coeffs, x[::-1])
        assert np.max(np.abs(rev - fwd[::-1])[128:-128]) < 1e-9

    def test_output_length(self, eeg_filter):
        x = np.random.default_rng(2).normal(size=333)
        assert len(dsp.filtfilt(eeg_filter, x)) == 333

    def test_sosfilt_in_place_on_a_reversed_view(self, eeg_filter):
        x = np.random.default_rng(3).normal(size=(3, 200))
        want = dsp.sosfilt(eeg_filter, x[:, ::-1].copy())
        rev = x[:, ::-1]
        assert dsp.sosfilt(eeg_filter, rev) is rev
        assert np.array_equal(rev, want)
        const = np.full((2, 50), 7.3)
        assert np.max(np.abs(dsp.sosfilt(eeg_filter, const))) < 1e-9

    @pytest.mark.parametrize("coeffs", [
        *(dsp.design_butterworth_bandpass(0.5, 45.0, 256.0, order) for order in (2, 4, 6, 8)),
        dsp.design_butterworth_bandpass(4.0, 8.0, 256.0, 8), GENERAL_FILTER,
    ], ids=["order2", "order4", "order6", "order8", "order8_narrow", "general"])
    @pytest.mark.parametrize("n", [2, 13, 16, 300, 10000, 20000])
    def test_sosfilt_within_bound_of_extended_reference(self, coeffs, n):
        # blocks are ceil(sqrt(n)) long: 2 is one block, 16 and 10000 fill
        # their last block, 13 leaves a one-sample last block and 20000 one
        # of 120 samples; the signals carry DC offsets of 0 and 50. (At n = 1
        # a bandpass output is rounding error alone: no relative bound holds.)
        x = 20.0 * np.random.default_rng(n).normal(size=(2, 3, n))
        x[1] += 50.0
        want = reference_sosfilt(coeffs, x.astype(np.longdouble))
        got = x.copy()
        assert dsp.sosfilt(coeffs, got) is got
        assert np.max(relative_errors(got, want)) < SOSFILT_BOUND

    @pytest.mark.parametrize("general", [False, True], ids=["bandpass", "general"])
    @pytest.mark.parametrize("shape", [(700,), (3, 6000), (1200, 40), (2, 3, 500)])
    def test_sosfilt_within_bound_of_extended_reference_at_any_batch_shape(
            self, eeg_filter, shape, general):
        # 1-D; long signals; many short ones; more than one batch axis
        coeffs = GENERAL_FILTER if general else eeg_filter
        x = 20.0 * np.random.default_rng(sum(shape)).normal(size=shape)
        want = reference_sosfilt(coeffs, x.astype(np.longdouble))
        got = x.copy()
        assert dsp.sosfilt(coeffs, got) is got
        assert np.max(relative_errors(got, want)) < SOSFILT_BOUND

    @pytest.mark.parametrize("general", [False, True], ids=["bandpass", "general"])
    def test_sosfilt_within_bound_of_reference_on_filtfilts_reversed_view(self, eeg_filter,
                                                                         general):
        coeffs = GENERAL_FILTER if general else eeg_filter
        ext = np.random.default_rng(4).normal(size=(4, 3, 3000))
        want = ext.astype(np.longdouble)
        reference_sosfilt(coeffs, want[..., ::-1])
        rev = ext[..., ::-1]
        assert dsp.sosfilt(coeffs, rev) is rev
        assert np.max(relative_errors(ext, want)) < SOSFILT_BOUND

    def test_sosfilt_signal_alone_equals_it_inside_a_batch(self, eeg_filter):
        batch = np.random.default_rng(5).normal(size=(1200, 300))
        alone = batch[777].copy()
        dsp.sosfilt(eeg_filter, batch)
        assert np.array_equal(dsp.sosfilt(eeg_filter, alone), batch[777])

    @settings(max_examples=40, deadline=None)
    @given(width=st.integers(1, 64), n=st.integers(1, 3000), general=st.booleans(),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_sosfilt_signal_alone_equals_it_inside_any_batch(self, width, n, general, seed,
                                                             data):
        coeffs = GENERAL_FILTER if general else dsp.design_butterworth_bandpass(
            0.5, 45.0, 256.0, 4)
        batch = 20.0 * np.random.default_rng(seed).normal(size=(width, n))
        row = data.draw(st.integers(0, width - 1))
        alone = batch[row].copy()
        dsp.sosfilt(coeffs, batch)
        assert np.array_equal(dsp.sosfilt(coeffs, alone), batch[row])

    def test_empty_batch(self, eeg_filter):
        assert dsp.sosfilt(eeg_filter, np.zeros((3, 0, 100))).shape == (3, 0, 100)
        assert dsp.filtfilt(eeg_filter, np.zeros((0, 4, 300))).shape == (0, 4, 300)

    def test_too_short_input(self, eeg_filter):
        with pytest.raises(DataError, match="too short"):
            dsp.filtfilt(eeg_filter, np.zeros(12))


class TestArtifactRejection:
    def epochs(self, peaks):
        out = np.zeros((len(peaks), 2, 16))
        out[:, 1, 3] = peaks
        return out

    def test_all_zero_kept(self):
        kept, rej = dsp.reject_artifacts(self.epochs([0.0]), 1.0)
        assert len(kept) == 1 and rej == 0

    def test_large_peak_rejected(self):
        kept, rej = dsp.reject_artifacts(self.epochs([500.0]), 100.0)
        assert len(kept) == 0 and rej == 1

    def test_conservation_and_order(self):
        eps = self.epochs([10.0, 500.0, 50.0, -200.0])
        kept, rej = dsp.reject_artifacts(eps, 100.0)
        assert len(kept) + rej == 4
        assert kept.tolist() == [0, 2]

    def test_keeps_the_epochs_the_peak_of_abs_keeps(self):
        # the peak as max(max, -min) against the max of |x| it replaced, on
        # every pair of special values in one epoch, the rest of it zero
        special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 100.0, -100.0,
                   np.nextafter(100.0, np.inf), np.nextafter(-100.0, -np.inf), 99.5, -99.5]
        pairs = list(itertools.product(special, repeat=2))
        eps = np.zeros((len(pairs), 2, 16))
        eps[:, 0, 5], eps[:, 1, 9] = np.array(pairs).T
        for e in (eps, -eps, eps[:, :, ::-1]):
            want = np.flatnonzero(np.max(np.abs(e), axis=(1, 2)) <= 100.0)
            kept, rej = dsp.reject_artifacts(e, 100.0)
            assert kept.tolist() == want.tolist()
            assert rej == len(e) - len(want)


class TestWelch:
    def test_sine_peak_at_exact_bin(self):
        fs, seg = 256.0, 256
        k = 20  # bin frequency k*fs/seg = 20 Hz
        t = np.arange(seg) / fs
        x = np.sin(2 * np.pi * (k * fs / seg) * t)
        psd = dsp.welch_psd(x, fs, segment_len=seg, overlap_fraction=0.0)
        assert np.argmax(psd.power) == k

    def test_white_noise_total_power(self):
        fs, seg = 256.0, 256
        rng = np.random.default_rng(42)
        x = rng.standard_normal(seg + 19 * seg // 2)  # 20 half-overlapped segments
        psd = dsp.welch_psd(x, fs, segment_len=seg, overlap_fraction=0.5)
        total = np.sum(psd.power) * fs / seg
        assert abs(total - 1.0) < 0.1

    def test_parseval_single_segment(self):
        # for one segment and any window w, sum(P) * df = sum((x w)^2) / sum(w^2)
        fs, seg = 128.0, 64
        x = np.random.default_rng(7).normal(size=seg)
        w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(seg) / seg)  # periodic Hann
        psd = dsp.welch_psd(x, fs, segment_len=seg, overlap_fraction=0.0)
        lhs = np.sum(psd.power) * fs / seg
        rhs = np.sum((x * w) ** 2) / np.sum(w * w)
        assert abs(lhs - rhs) / rhs < 1e-9

    def test_short_signal_rejected(self):
        with pytest.raises(DataError, match="shorter"):
            dsp.welch_psd(np.zeros(100), 256.0, segment_len=256, overlap_fraction=0.5)

    def test_freq_axis(self):
        psd = dsp.welch_psd(np.random.default_rng(0).normal(size=256), 256.0, 128, 0.5)
        assert psd.freqs_hz[0] == 0.0
        assert psd.freqs_hz[-1] == 128.0
        assert len(psd.power) == 65
        assert np.all(psd.power >= 0)


class TestBandPower:
    @pytest.fixture
    def psd(self):
        x = np.random.default_rng(3).normal(size=1024)
        return dsp.welch_psd(x, 256.0, segment_len=256, overlap_fraction=0.5)

    def test_full_band_equals_total(self, psd):
        total = np.trapezoid(psd.power, psd.freqs_hz)
        assert dsp.band_power(psd, 0.0, 128.0) == pytest.approx(total, rel=1e-12)

    def test_partition_additivity(self, psd):
        # edges aligned to the 1 Hz bin grid so trapezoids tile exactly
        edges = [0.0, 4.0, 8.0, 13.0, 30.0, 128.0]
        parts = [dsp.band_power(psd, lo, hi) for lo, hi in zip(edges, edges[1:])]
        total = dsp.band_power(psd, 0.0, 128.0)
        assert abs(sum(parts) - total) / total < 1e-9

    def test_empty_band(self, psd):
        with pytest.raises(DataError, match=r"0 PSD bin\(s\) inside band \(4.2, 4.4\); band_power needs 2"):
            dsp.band_power(psd, 4.2, 4.4)

    def test_bad_range(self, psd):
        with pytest.raises(ConfigError):
            dsp.band_power(psd, 10.0, 5.0)


class TestCheckBands:
    @pytest.mark.parametrize("seg", [8, 64, 256])
    @pytest.mark.parametrize("fs", [40.0, 50.0, 60.1, 61.0, 90.0, 90.5, 256.0])
    def test_passes_exactly_where_extract_features_can_measure_every_band(self, fs, seg):
        x = np.random.default_rng(0).normal(size=(2, seg))
        try:
            dsp.extract_features(x, fs, dsp.FeatureConfig(welch_segment_len=seg), ["ch0", "ch1"])
        except (ConfigError, DataError) as exc:
            with pytest.raises(ConfigError, match=f"sample rate {fs} Hz") as raised:
                dsp.check_bands(fs, seg)
            assert str(exc) in str(raised.value)
        else:
            dsp.check_bands(fs, seg)

    def test_names_the_first_band_it_cannot_measure(self):
        # 8-point segments at 256 Hz put bins 32 Hz apart: delta holds none
        with pytest.raises(ConfigError, match="EEG band delta"):
            dsp.check_bands(256.0, 8)


class TestSpectralEntropy:
    def mk(self, power):
        power = np.asarray(power, dtype=float)
        freqs = np.linspace(0, 10, len(power))
        return dsp.Psd(freqs, power)

    def test_uniform_is_one(self):
        assert dsp.spectral_entropy(self.mk([2.0] * 8)) == 1.0

    def test_delta_is_zero(self):
        assert dsp.spectral_entropy(self.mk([0, 0, 5.0, 0])) == 0.0

    def test_two_of_four_is_half(self):
        assert dsp.spectral_entropy(self.mk([1.0, 0, 1.0, 0])) == 0.5

    def test_scale_invariance(self):
        power = np.random.default_rng(5).uniform(0.1, 2.0, 32)
        h1 = dsp.spectral_entropy(self.mk(power))
        h2 = dsp.spectral_entropy(self.mk(power * 731.0))
        assert abs(h1 - h2) < 1e-12

    def test_bounds(self):
        for seed in range(5):
            power = np.random.default_rng(seed).uniform(0.0, 1.0, 16)
            h = dsp.spectral_entropy(self.mk(power))
            assert 0.0 <= h <= 1.0

    def test_all_zero_rejected(self):
        with pytest.raises(DataError, match="all-zero"):
            dsp.spectral_entropy(self.mk([0.0, 0.0, 0.0]))


class TestTimeDomainStats:
    def test_hand_computed_case(self):
        fv = dsp.time_domain_stats(np.array([1.0, -1.0, 1.0, -1.0]))
        stats = dict(zip(fv.names, fv.values))
        assert stats["mean"] == 0.0
        assert stats["variance"] == 1.0
        assert stats["rms"] == 1.0
        assert stats["zero_crossings"] == 3.0

    def test_standard_normal_moments(self):
        x = np.random.default_rng(11).standard_normal(100_000)
        stats = dict(zip(dsp.TIME_DOMAIN_STAT_NAMES, dsp.time_domain_stats(x).values))
        assert abs(stats["skewness"]) < 0.05
        assert abs(stats["kurtosis"]) < 0.1

    def test_sine_hjorth_mobility(self):
        # oracle: analytic mobility of first differences of a sampled sine,
        # sqrt(var(dx)/var(x)) = 2*sin(pi*f/fs)
        fs, f = 256.0, 10.0
        t = np.arange(int(fs)) / fs
        x = np.sin(2 * np.pi * f * t)
        stats = dict(zip(dsp.TIME_DOMAIN_STAT_NAMES, dsp.time_domain_stats(x).values))
        assert stats["hjorth_mobility"] == pytest.approx(2 * np.sin(np.pi * f / fs), rel=0.01)

    def test_constant_signal_flags_zero(self):
        with pytest.warns(UserWarning, match="constant"):
            fv = dsp.time_domain_stats(np.full(10, 3.0))
        stats = dict(zip(fv.names, fv.values))
        assert stats["skewness"] == 0.0
        assert stats["kurtosis"] == 0.0
        assert stats["hjorth_mobility"] == 0.0
        assert stats["hjorth_complexity"] == 0.0
        assert stats["mean"] == 3.0

    def test_moment_ratios_match_scalar_formula_exactly(self):
        # the scalar definitions, one signal at a time with Python floats
        x = np.random.default_rng(12).normal(size=(3000, 64))
        fv = dsp.time_domain_stats(x)
        for row, values in zip(x, fv.values):
            d = row - float(np.mean(row))
            d2 = d * d
            var = float(np.mean(d2))
            assert values[2] == float(np.mean(d2 * d) / var**1.5)
            assert values[3] == float(np.mean(d2 * d2) / var**2 - 3.0)

    def test_moment_ratios_near_exact_means(self):
        # oracle: the means of d**3 and d**4 taken exactly over the float
        # deviations d; each ratio is judged against its own magnitude
        eps = np.finfo(float).eps
        rng = np.random.default_rng(13)
        x = rng.standard_normal((300, 64)) * rng.choice([1e-3, 1.0, 50.0], size=(300, 1))
        x[:100] = np.exp(x[:100] / np.max(np.abs(x[:100]), axis=1, keepdims=True))  # skewed rows
        fv = dsp.time_domain_stats(x)
        for row, (_, var, skew, kurt, *_) in zip(x, fv.values):
            d = [Fraction(v) for v in row - np.mean(row)]
            m3 = sum(v**3 for v in d) / len(d)
            m4 = sum(v**4 for v in d) / len(d)
            abs3 = float(sum(abs(v) ** 3 for v in d) / len(d))
            assert abs(skew - float(m3) / var**1.5) <= 4 * eps * abs3 / var**1.5
            assert abs(kurt - (float(m4 / Fraction(var) ** 2) - 3.0)) <= 4 * eps * (kurt + 3.0)

    def test_masks_warn_once_per_case(self):
        noise = np.random.default_rng(6).normal(size=64)
        batch = np.stack([np.full(64, 3.0), np.arange(64.0), np.full(64, -1.0), noise])
        with pytest.warns(UserWarning) as record:
            fv = dsp.time_domain_stats(batch)
        assert sorted(str(w.message).split(":")[0] for w in record) == [
            "constant signal", "linear signal"]
        stats = {name: fv.values[:, j] for j, name in enumerate(fv.names)}
        assert stats["skewness"][[0, 2]].tolist() == [0.0, 0.0]
        assert stats["hjorth_mobility"][[0, 2]].tolist() == [0.0, 0.0]
        assert stats["hjorth_complexity"][:3].tolist() == [0.0, 0.0, 0.0]
        assert stats["kurtosis"][1] == pytest.approx(-1.2, abs=1e-2)  # uniform ramp
        assert np.array_equal(fv.values[3], dsp.time_domain_stats(noise).values)


FEATURES = dsp.FeatureConfig()


class TestExtractFeatures:
    def test_four_channels_give_56_features(self):
        data, _ = dataio.synth_generate(1, 256, 256.0, seed=0)
        fv = dsp.extract_features(data[0], 256.0, FEATURES, dataio.DEFAULT_CHANNELS)
        assert len(fv.values) == 56
        assert fv.names[0] == "TP9.bandpower.delta"
        assert "AF7.entropy" in fv.names

    def test_names_unique_and_stable(self):
        data, _ = dataio.synth_generate(1, 256, 256.0, seed=1)
        a = dsp.extract_features(data[0], 256.0, FEATURES, dataio.DEFAULT_CHANNELS)
        b = dsp.extract_features(data[0], 256.0, FEATURES, dataio.DEFAULT_CHANNELS)
        assert a.names == b.names
        assert len(set(a.names)) == len(a.names)

    def test_all_zero_epoch_hits_entropy_error(self):
        epoch = np.zeros((4, 256))
        psd = dsp.welch_psd(epoch[0], 256.0, 256, 0.5)
        assert dsp.band_power(psd, 8.0, 13.0) == 0.0
        with pytest.raises(DataError, match="all-zero"):
            dsp.extract_features(epoch, 256.0, FEATURES, dataio.DEFAULT_CHANNELS[:len(epoch)])

    def test_short_epoch_rejected(self):
        epoch = np.random.default_rng(0).normal(size=(2, 64))
        with pytest.raises(DataError, match="shorter than Welch"):
            dsp.extract_features(epoch, 256.0, FEATURES, dataio.DEFAULT_CHANNELS[:len(epoch)])

    def test_empty_batch(self):
        fv = dsp.extract_features(np.zeros((0, 4, 256)), 256.0, FEATURES,
                                  dataio.DEFAULT_CHANNELS)
        assert fv.values.shape == (0, 56) and len(fv.names) == 56

    def test_batch_shape_and_channel_grouping(self):
        data, _ = dataio.synth_generate(2, 256, 256.0, seed=2)
        fv = dsp.extract_features(data.reshape(2, 3, 4, 256), 256.0, FEATURES,
                                  dataio.DEFAULT_CHANNELS)
        assert fv.values.shape == (2, 3, 56)
        # the 14 features of channel c are the columns [14c, 14c + 14)
        one = dsp.extract_features(data[5, 2:3], 256.0, FEATURES, ["AF8"])
        assert np.array_equal(fv.values[1, 2, 28:42], one.values)


# features of a small band set at a short Welch segment keep the examples fast
SMALL = dsp.FeatureConfig(welch_segment_len=128)


@st.composite
def epoch_stacks(draw):
    """A stack [n, n_ch, n_samples] of random epochs, as a contiguous array or
    as a strided or reversed view of a larger one."""
    n = draw(st.integers(1, 4))
    n_ch = draw(st.integers(1, 3))
    n_samples = draw(st.integers(SMALL.welch_segment_len, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["contiguous", "strided", "reversed"]))
    scale = draw(st.sampled_from([1e-3, 1.0, 50.0]))
    if layout == "contiguous":
        return scale * rng.standard_normal((n, n_ch, n_samples))
    if layout == "strided":
        return scale * rng.standard_normal((2 * n, n_ch + 1, 2 * n_samples))[::2, 1:, ::2]
    return (scale * rng.standard_normal((n, n_ch, n_samples)))[::-1, :, ::-1]


class TestBatchIndependence:
    """An epoch's filtered signal and features must not depend on what it is
    batched with: each equals, bit for bit, the same call on that epoch alone."""

    @settings(max_examples=40, deadline=None)
    @given(epoch_stacks())
    def test_extract_features_row_equals_single_epoch(self, stack):
        names = dataio.DEFAULT_CHANNELS[: stack.shape[1]]
        batch = dsp.extract_features(stack, 256.0, SMALL, names).values
        assert batch.shape == (len(stack), 14 * stack.shape[1])
        for i in range(len(stack)):
            one = dsp.extract_features(stack[i:i + 1], 256.0, SMALL, names).values[0]
            assert np.array_equal(batch[i], one)
            assert np.array_equal(batch[i],
                                  dsp.extract_features(stack[i], 256.0, SMALL, names).values)

    @settings(max_examples=40, deadline=None)
    @given(epoch_stacks())
    def test_filtfilt_row_equals_single_epoch(self, stack):
        coeffs = dsp.design_butterworth_bandpass(0.5, 45.0, 256.0, 4)
        batch = dsp.filtfilt(coeffs, stack)
        assert batch.shape == stack.shape
        for i in range(len(stack)):
            assert np.array_equal(batch[i], dsp.filtfilt(coeffs, stack[i:i + 1])[0])
            assert np.array_equal(batch[i, -1], dsp.filtfilt(coeffs, stack[i, -1]))
        # a sequence of arrays is filtered as its stack
        assert np.array_equal(batch, dsp.filtfilt(coeffs, list(stack)))


class TestNormalization:
    def test_zscore_closed_form(self):
        x = np.array([[1.0], [2.0], [3.0]])
        params = dsp.fit_normalization(x, "zscore")
        out = dsp.apply_normalization(x, params)
        want = np.array([-1.22474487, 0.0, 1.22474487])
        assert np.allclose(out[:, 0], want, atol=1e-8)

    def test_minmax_closed_form(self):
        x = np.array([[1.0], [2.0], [3.0]])
        out = dsp.apply_normalization(x, dsp.fit_normalization(x, "minmax"))
        assert out[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_zscore_training_columns_centered(self):
        x = np.random.default_rng(1).normal(3.0, 4.0, size=(50, 6))
        out = dsp.apply_normalization(x, dsp.fit_normalization(x, "zscore"))
        assert np.max(np.abs(out.mean(axis=0))) < 1e-9
        assert np.max(np.abs(np.sqrt(np.mean((out - out.mean(0)) ** 2, 0)) - 1)) < 1e-9

    def test_standardization_idempotent(self):
        x = np.random.default_rng(2).normal(size=(30, 4))
        once = dsp.apply_normalization(x, dsp.fit_normalization(x, "zscore"))
        refit = dsp.fit_normalization(once, "zscore")
        assert np.max(np.abs(refit.lo)) < 1e-9
        assert np.max(np.abs(refit.hi - 1.0)) < 1e-9

    def test_constant_column_zscore(self):
        x = np.column_stack([np.full(5, 2.0), np.arange(5.0)])
        with pytest.warns(UserWarning, match="constant"):
            params = dsp.fit_normalization(x, "zscore")
        out = dsp.apply_normalization(x, params)
        assert np.all(out[:, 0] == 0.0)

    def test_constant_column_minmax(self):
        x = np.column_stack([np.full(5, 2.0), np.arange(5.0)])
        with pytest.warns(UserWarning, match="constant"):
            params = dsp.fit_normalization(x, "minmax")
        out = dsp.apply_normalization(x, params)
        assert np.all(out[:, 0] == 0.5)

    def test_train_only_params_do_not_center_validation(self):
        rng = np.random.default_rng(9)
        train = rng.normal(0.0, 1.0, size=(40, 3))
        val = rng.normal(0.5, 1.3, size=(40, 3))
        params = dsp.fit_normalization(train, "zscore")
        out = dsp.apply_normalization(val, params)
        assert np.max(np.abs(out.mean(axis=0))) > 1e-3

    def test_minmax_training_in_unit_interval(self):
        x = np.random.default_rng(4).normal(size=(20, 5))
        out = dsp.apply_normalization(x, dsp.fit_normalization(x, "minmax"))
        assert out.min() >= 0.0 and out.max() <= 1.0

