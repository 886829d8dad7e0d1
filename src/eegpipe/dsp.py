"""Deterministic DSP front end.

Butterworth bandpass design (bilinear transform with pre-warping,
second-order sections), zero-phase filtering, amplitude-threshold
artifact rejection, Welch PSD, spectral entropy, time-domain statistics,
and feature-matrix normalization. Every signal routine acts along the
last axis of an array of any shape, so one signal is a batch of one.
Everything is a pure function of its inputs; summation order is fixed, so
results are bit-reproducible and a signal's result does not depend on what
it is batched with.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, DataError, NumericError

EEG_BANDS = {
    "delta": (0.5, 4.0),
    "theta": (4.0, 8.0),
    "alpha": (8.0, 13.0),
    "beta": (13.0, 30.0),
    "gamma": (30.0, 45.0),
}

TIME_DOMAIN_STAT_NAMES = [
    "mean",
    "variance",
    "skewness",
    "kurtosis",
    "rms",
    "zero_crossings",
    "hjorth_mobility",
    "hjorth_complexity",
]


@dataclass
class FilterCoefficients:
    """Cascade of biquad sections (b0, b1, b2, a1, a2), with each section's
    steady state for a unit step, solved once here."""

    sections: list[tuple[float, float, float, float, float]]

    def __post_init__(self):
        # Jury's test, exact on the stored floats: both roots of z^2 + a1 z + a2
        # lie inside the unit circle iff |a2| < 1 and |a1| < 1 + a2. It makes
        # 1 + a1 + a2 > 0, so with A = [[-a1, 1], [-a2, 0]] and c = (b1 - a1 b0,
        # b2 - a2 b0) each step state solves (I - A) zi = c, scaled by the DC
        # gain of the sections before it, exact in rationals and rounded once: a
        # bandpass section (b1 = 0, b2 = -b0) gets (-b0, -b0) and passes a gain
        # of 0 to the sections after it
        self.step_states = []
        scale = Fraction(1)
        for section in self.sections:
            a1, a2 = section[3:]
            if not (math.isfinite(a1) and abs(a2) < 1.0 and abs(Fraction(a1)) < 1 + Fraction(a2)):
                raise NumericError(f"unstable filter section (a1={a1}, a2={a2})")
            if not all(map(math.isfinite, section)):
                raise NumericError(f"non-finite filter section {tuple(map(float, section))}")
            b0, b1, b2, a1, a2 = map(Fraction, section)
            c1, c2 = b1 - a1 * b0, b2 - a2 * b0
            z1 = (c1 + c2) / (1 + a1 + a2)
            self.step_states.append((float(z1 * scale), float((c2 - a2 * z1) * scale)))
            scale *= (b0 + b1 + b2) / (1 + a1 + a2)

    @property
    def order(self) -> int:
        return 2 * len(self.sections)


@dataclass
class Psd:
    """One-sided power spectral density estimate, power [..., n_bins]."""

    freqs_hz: np.ndarray
    power: np.ndarray


@dataclass
class FeatureVector:
    """Feature values [..., n_features] with their parallel names."""

    values: np.ndarray
    names: list[str]


# the checkpoint keys of each normalization mode's two statistics
_NORM_KEYS = {"zscore": ("mean", "std"), "minmax": ("min", "max")}


@dataclass
class NormalizationParams:
    """Per-feature statistics fitted on the training split only: lo and hi are
    the mean and std (zscore) or the min and max (minmax) of each column."""

    mode: str  # a key of _NORM_KEYS
    lo: np.ndarray
    hi: np.ndarray

    def to_dict(self) -> dict:
        lo_key, hi_key = _NORM_KEYS[self.mode]
        return {"mode": self.mode, lo_key: self.lo.tolist(), hi_key: self.hi.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "NormalizationParams":
        """Read statistics written by to_dict; anything that could not have
        been fitted is a DataError: an unknown mode, a missing, non-finite or
        ragged statistic, a zscore std <= 0 or a minmax max < min."""
        mode = d["mode"]
        keys = _NORM_KEYS.get(mode)
        if keys is None:
            raise DataError(f"unknown normalization mode {mode!r}")
        lo, hi = (np.asarray(d[k], dtype=float) for k in keys)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise DataError(f"normalization {keys[0]} and {keys[1]} must be vectors of one length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise DataError("normalization statistics must be finite")
        if mode == "zscore" and not (hi > 0).all():
            raise DataError("normalization std must be > 0")
        if mode == "minmax" and not (hi >= lo).all():
            raise DataError("normalization max must be >= min")
        return cls(mode, lo, hi)


@dataclass
class FeatureConfig:
    """Feature-extraction parameters."""

    welch_segment_len: int = 256
    welch_overlap: float = 0.5
    filter_low_hz: float = 0.5
    filter_high_hz: float = 45.0
    filter_order: int = 4
    artifact_threshold_uv: float = 100.0


def design_butterworth_bandpass(low_hz: float, high_hz: float, fs_hz: float,
                                order: int) -> FilterCoefficients:
    """Design a digital Butterworth bandpass as second-order sections.

    `order` is the overall bandpass order (an order-4 bandpass has an
    order-2 lowpass prototype and two biquad sections). The analog
    prototype is mapped through the band transform and the bilinear
    transform with frequency pre-warping, so the digital magnitude at
    frequency f equals the analog Butterworth magnitude at the warped
    frequency 2*fs*tan(pi*f/fs) exactly. Gain is normalized to 1 at the
    warped center frequency.
    """
    if not (0.0 < low_hz < high_hz < fs_hz / 2.0):
        raise ConfigError(
            f"band edges must satisfy 0 < low < high < fs/2, got ({low_hz}, {high_hz}) at fs {fs_hz}"
        )
    n = order // 2
    # fs has passed check_bands, which keeps its Welch bins at most 3.5 Hz
    # apart, so the pre-warp and the poles are finite; but the poles may round
    # onto z = 1, or the gain overflow at a low edge near 0, and
    # FilterCoefficients refuses such a section, so the steps stay silent
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        wl = 2.0 * fs_hz * np.tan(np.pi * low_hz / fs_hz)
        wh = 2.0 * fs_hz * np.tan(np.pi * high_hz / fs_hz)
        w0 = np.sqrt(wl * wh)
        bw = wh - wl

        # lowpass prototype poles on the left half of the unit circle
        k = np.arange(1, n + 1)
        proto = np.exp(1j * np.pi * (2 * k + n - 1) / (2 * n))
        # lowpass -> bandpass: each prototype pole yields two analog poles
        analog = []
        for p in proto:
            disc = np.sqrt((p * bw) ** 2 - 4.0 * w0**2 + 0j)
            analog.append((p * bw + disc) / 2.0)
            analog.append((p * bw - disc) / 2.0)
        # bilinear transform; zeros land at z=+1 (n of them) and z=-1 (n of them)
        zpoles = np.array([(2.0 * fs_hz + s) / (2.0 * fs_hz - s) for s in analog])

        # unit gain at the warped center frequency (analog response is 1 there)
        fc = fs_hz / np.pi * np.arctan(w0 / (2.0 * fs_hz))
        zc = np.exp(2j * np.pi * fc / fs_hz)
        resp = (zc - 1.0) ** n * (zc + 1.0) ** n
        for p in zpoles:
            resp /= zc - p
        gain = 1.0 / abs(resp)

    # pair conjugate poles into biquads; each section takes one zero pair
    cplx = sorted(
        (p for p in zpoles if p.imag > 1e-12), key=lambda p: (-abs(p), p.real)
    )
    reals = sorted(float(p.real) for p in zpoles if abs(p.imag) <= 1e-12)
    pairs: list[tuple[complex, complex]] = [(p, p.conjugate()) for p in cplx]
    pairs.extend((reals[i], reals[i + 1]) for i in range(0, len(reals), 2))
    g_sec = gain ** (1.0 / len(pairs))
    sections = []
    for p1, p2 in pairs:
        a1 = float(-(p1 + p2).real)
        a2 = float((p1 * p2).real)
        sections.append((g_sec, 0.0, -g_sec, a1, a2))
    return FilterCoefficients(sections)


@functools.lru_cache(maxsize=64)
def _section_powers(a1: float, a2: float, span: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Powers of a DF2T section's state transition A = [[-a1, 1], [-a2, 0]]:
    the first row of A^j for j < span, as two vectors, and A^span. They are
    formed in extended precision and rounded once, and are read-only, as
    every caller shares them."""
    a = np.array([[-a1, 1.0], [-a2, 0.0]], dtype=np.longdouble)
    powers = [np.eye(2, dtype=np.longdouble)]
    for _ in range(span):
        powers.append(a @ powers[-1])
    first = np.array([p[0] for p in powers[:span]], dtype=float)
    out = first[:, 0], first[:, 1], powers[span].astype(float)
    for arr in out:
        arr.flags.writeable = False
    return out


def _filter_section(blocks: np.ndarray, section, z1_start, z2_start) -> None:
    """One DF2T section over blocks[j, k, ...], sample k * span + j of each
    signal, in place; z1_start and z2_start are the state before sample 0."""
    b0, b1, b2, a1, a2 = section
    span = len(blocks)
    rows = max(1, 8192 // blocks[0].size)  # rows per chunk of temporaries
    # 1. every block from a zero state, one in-block position of all blocks per
    # step; the chunk's three input products are formed up front
    z1 = z2 = 0.0
    for start in range(0, span, rows):
        chunk = blocks[start : start + rows]
        y, bx1, bx2 = (np.multiply(chunk, b) for b in (b0, b1, b2))
        for yi, bx1i, bx2i in zip(y, bx1, bx2):
            yi += z1
            z1 = bx1i - a1 * yi + z2
            z2 = bx2i - a2 * yi
        chunk[...] = y
    # 2. the true state at the start of each block: that of the block before,
    # carried across it by A^span, plus the block's own zero-state end state
    p, q, m = _section_powers(a1, a2, span)
    s1, s2 = np.empty_like(z1), np.empty_like(z2)
    s1[0], s2[0] = z1_start, z2_start
    for k in range(len(s1) - 1):
        s1[k + 1] = m[0, 0] * s1[k] + m[0, 1] * s2[k] + z1[k]
        s2[k + 1] = m[1, 0] * s1[k] + m[1, 1] * s2[k] + z2[k]
    # 3. add each start state's zero-input response, y_j = (A^j s)[0]
    for start in range(0, span, rows):
        chunk = blocks[start : start + rows]
        chunk += np.multiply.outer(p[start : start + rows], s1)
        chunk += np.multiply.outer(q[start : start + rows], s2)


def sosfilt(coeffs: FilterCoefficients, x: np.ndarray) -> np.ndarray:
    """Causal cascade filtering (direct form II transposed) along the last axis of
    the float array x, in place; returns x. Each section starts in its steady
    state for a constant input x[..., 0], so a constant signal passes as 0.

    A two-level block recurrence replaces the loop over samples. The time
    axis is cut into blocks of about sqrt(n) samples, zero-padded at the
    end. For each section, one DF2T step per in-block position runs over
    every block of every signal at once, each block from a zero state; then
    the true block-start states are carried across the blocks by the
    section's 2x2 transition matrix, and their zero-input response is added.
    So the Python loops take about 3 sqrt(n) turns per section, not n. The
    blocked copy is as large as x: callers bound the batches they filter.

    The result is not that of a per-sample loop bit for bit: on the EEG
    bandpass designs its error against an extended-precision reference is
    within 1e-11 of max|y| (see tests/test_dsp.py). Every operation is
    elementwise, and the block length depends on n only, so a signal's
    result does not depend on what it is batched with.
    """
    if x.size == 0:
        return x
    xt = np.moveaxis(x, -1, 0)  # time-major view of x
    if xt.ndim == 1:
        xt = xt[:, None]  # keep each step a writable row, not a scalar
    n = len(xt)
    span = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    n_full, tail = divmod(n, span)
    # blocks[j, k] is sample k * span + j; full[j, k] views the same sample of xt
    blocks = np.zeros((span, n_full + (tail > 0), *xt.shape[1:]))
    full = xt[: n_full * span].reshape(n_full, span, *xt.shape[1:]).swapaxes(0, 1)
    last = xt[n_full * span :]  # the samples of a short last block, if any
    blocks[:, :n_full] = full
    blocks[:tail, n_full:] = last[:, None]
    for section, state in zip(coeffs.sections, coeffs.step_states):
        z1, z2 = np.multiply.outer(state, xt[0])
        _filter_section(blocks, section, z1, z2)
    full[...] = blocks[:, :n_full]
    last[...] = blocks[:tail, -1]
    return x


def filtfilt(coeffs: FilterCoefficients, x) -> np.ndarray:
    """Zero-phase forward-backward filtering along the last axis, with
    reflective edge padding.

    `x` is an array [..., n_samples] or a list of equal-shape arrays,
    filtered as their stack; the stack is written straight into the padded
    work array, which is then filtered in place. The list is emptied once
    it is stacked, so that arrays it alone holds are freed before the
    filter runs. Each edge is padded by 3x the filter order, which the
    input must exceed in length. Initial conditions are the steady-state
    response to the first padded sample, so constant inputs pass through a
    bandpass as exactly zero. The effective magnitude response is |H|^2.
    """
    stacked = not isinstance(x, np.ndarray)
    shape = (len(x), *np.shape(x[0])) if stacked else x.shape
    n = shape[-1]
    padlen = 3 * coeffs.order
    if n <= padlen:
        raise DataError(f"input length {n} too short; need more than {padlen} samples")
    ext = np.empty(shape[:-1] + (n + 2 * padlen,))
    body = ext[..., padlen : padlen + n]
    if stacked:
        np.stack(x, out=body)
        x.clear()
    else:
        body[...] = x
    ext[..., :padlen] = 2.0 * body[..., :1] - body[..., padlen:0:-1]
    ext[..., padlen + n :] = 2.0 * body[..., -1:] - body[..., -2 : -padlen - 2 : -1]
    for y in (ext, ext[..., ::-1]):  # forward, then backward over the forward output
        sosfilt(coeffs, y)
    return body


def reject_artifacts(epochs: np.ndarray, peak_uv: float) -> tuple[np.ndarray, int]:
    """Indices of the epochs [n, ...] whose peak absolute amplitude stays
    within peak_uv, and the number rejected.

    An epoch's peak is the larger of its maximum and minus its minimum, so
    no |x| copy of the epochs is made; a NaN sample makes the peak NaN, and
    the epoch is rejected."""
    axes = tuple(range(1, np.ndim(epochs)))
    peaks = np.maximum(np.max(epochs, axis=axes), -np.min(epochs, axis=axes))
    kept = np.flatnonzero(peaks <= peak_uv)
    return kept, len(epochs) - len(kept)


def welch_psd(x: np.ndarray, fs_hz: float, segment_len: int, overlap_fraction: float) -> Psd:
    """Welch PSD along the last axis: averaged one-sided periodograms of
    Hann-windowed segments.

    Normalized by the window power, so the integral of the PSD estimates
    the signal variance plus DC power.
    """
    if x.shape[-1] < segment_len:
        raise DataError(f"signal length {x.shape[-1]} shorter than Welch segment {segment_len}")
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment_len) / segment_len)  # periodic Hann
    hop = max(1, int(round(segment_len * (1.0 - overlap_fraction))))
    segments = np.lib.stride_tricks.sliding_window_view(x, segment_len, axis=-1)[..., ::hop, :]
    scale = 1.0 / (fs_hz * np.sum(w * w))
    spec = np.abs(np.fft.rfft(segments * w)) ** 2 * scale
    spec[..., 1:-1] *= 2.0  # one-sided: double all bins except DC and Nyquist
    power = np.sum(spec, axis=-2) / segments.shape[-2]
    freqs = np.fft.rfftfreq(segment_len, d=1.0 / fs_hz)
    return Psd(freqs, power)


def band_power(psd: Psd, low_hz: float, high_hz: float) -> np.ndarray:
    """Trapezoidal integral of the PSD over [low_hz, high_hz], per signal."""
    freqs = psd.freqs_hz
    if not 0.0 <= low_hz < high_hz <= freqs[-1]:
        raise ConfigError(f"band ({low_hz}, {high_hz}) outside [0, {freqs[-1]}] or inverted")
    lo = np.searchsorted(freqs, low_hz, side="left")
    hi = np.searchsorted(freqs, high_hz, side="right")
    if hi - lo < 2:
        raise DataError(f"{hi - lo} PSD bin(s) inside band ({low_hz}, {high_hz}); "
                        "band_power needs 2")
    # a slice, not a boolean mask: the band's bins stay contiguous, so each
    # signal's sum runs in the same order whatever it is batched with
    return np.trapezoid(psd.power[..., lo:hi], freqs[lo:hi], axis=-1)


def check_bands(fs_hz: float, segment_len: int) -> None:
    """Raise a ConfigError naming the first EEG_BANDS band that extract_features
    cannot measure at fs_hz: clipped to Nyquist, as there, the band must keep
    the 2 bins of a segment_len-point Welch PSD that band_power needs."""
    freqs = np.fft.rfftfreq(segment_len, d=1.0 / fs_hz)
    for name, (lo, hi) in EEG_BANDS.items():
        try:
            band_power(Psd(freqs, 0.0 * freqs), lo, min(hi, freqs[-1]))
        except (ConfigError, DataError) as exc:
            raise ConfigError(f"EEG band {name} ({lo}-{hi} Hz) cannot be measured at sample rate "
                              f"{fs_hz} Hz with welch_segment_len {segment_len}: {exc}") from None


def spectral_entropy(psd: Psd) -> np.ndarray:
    """Shannon entropy of the normalized PSD, scaled to [0, 1] by ln(n_bins), per signal."""
    total = np.sum(psd.power, axis=-1, keepdims=True)
    if np.any(total <= 0.0):
        raise DataError("spectral entropy undefined for an all-zero PSD")
    p = psd.power / total
    h = -np.sum(p * np.log(np.where(p > 0.0, p, 1.0)), axis=-1)  # 0 log 0 = 0
    return h / np.log(psd.power.shape[-1])


def time_domain_stats(x: np.ndarray) -> FeatureVector:
    """Fixed-order time-domain statistics along the last axis.

    Order: mean, population variance, skewness, excess kurtosis, RMS,
    zero-crossing count, Hjorth mobility, Hjorth complexity; values are
    [..., 8]. On a constant signal the moment ratios and Hjorth parameters
    are undefined, and on a linear one the Hjorth complexity; they are
    reported as 0 with one warning per case.
    """
    x = np.ascontiguousarray(x, dtype=float)
    mean = np.mean(x, axis=-1, keepdims=True)
    d = x - mean
    d2 = d * d  # products, not np.power: libm pow costs most of this function
    var = np.mean(d2, axis=-1)
    m3, m4 = np.mean(d2 * d, axis=-1), np.mean(d2 * d2, axis=-1)
    del d, d2  # as large as x: free them before the differences below
    rms = np.sqrt(np.mean(x * x, axis=-1))
    zc = np.sum(x[..., :-1] * x[..., 1:] < 0.0, axis=-1)
    dx = np.diff(x, axis=-1)
    var_dx = np.mean((dx - np.mean(dx, axis=-1, keepdims=True)) ** 2, axis=-1)
    ddx = np.diff(dx, axis=-1)
    var_ddx = np.mean((ddx - np.mean(ddx, axis=-1, keepdims=True)) ** 2, axis=-1)
    constant = var == 0.0
    flat = constant | (var_dx == 0.0)  # constant or linear: Hjorth complexity undefined
    if np.any(constant):
        warnings.warn("constant signal: skewness/kurtosis/Hjorth reported as 0")
    if np.any(flat & ~constant):
        warnings.warn("linear signal: Hjorth complexity reported as 0")
    # masked entries get a unit denominator here and a 0 result below
    var_safe = np.where(constant, 1.0, var)
    power = np.frompyfunc(_power, 2, 1)
    skew = m3 / np.asarray(power(var_safe, 1.5), dtype=float)
    kurt = m4 / np.asarray(power(var_safe, 2), dtype=float) - 3.0
    mobility = np.sqrt(var_dx / var_safe)
    complexity = np.sqrt(var_ddx / np.where(flat, 1.0, var_dx)) / np.where(flat, 1.0, mobility)
    skew, kurt, mobility = (np.where(constant, 0.0, v) for v in (skew, kurt, mobility))
    values = [mean[..., 0], var, skew, kurt, rms, zc, mobility, np.where(flat, 0.0, complexity)]
    return FeatureVector(np.stack(values, axis=-1), list(TIME_DOMAIN_STAT_NAMES))


def _power(base: float, exponent: float) -> float:
    """Python's float pow, one value at a time (numpy's vectorized power and
    square can differ from it in the last bit), and inf where it overflows."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def extract_features(epochs: np.ndarray, fs_hz: float, config: FeatureConfig,
                     channel_names: list[str]) -> FeatureVector:
    """Per-channel band powers, spectral entropy, and time-domain statistics.

    `epochs` is [..., n_ch, n_samples]; values are [..., n_features]. The
    bands are the five EEG_BANDS, so this yields 14 features per channel,
    named `<channel>.<feature>` and grouped by channel. The Welch settings
    come from config.
    """
    psd = welch_psd(epochs, fs_hz, config.welch_segment_len, config.welch_overlap)
    spectral = [band_power(psd, lo, min(hi, psd.freqs_hz[-1])) for lo, hi in EEG_BANDS.values()]
    spectral.append(spectral_entropy(psd))
    per_channel = np.concatenate(
        [np.stack(spectral, axis=-1), time_domain_stats(epochs).values], axis=-1
    )  # [..., n_ch, 14]
    kinds = [f"bandpower.{b}" for b in EEG_BANDS] + ["entropy"] + TIME_DOMAIN_STAT_NAMES
    names = [f"{ch}.{kind}" for ch in channel_names for kind in kinds]
    return FeatureVector(per_channel.reshape(per_channel.shape[:-2] + (len(names),)), names)


def fit_normalization(features: np.ndarray, mode: str) -> NormalizationParams:
    """Fit per-column zscore or minmax (`mode`) normalization statistics
    (training split only).

    Constant columns get std=1 (zscore maps them to 0) or are pinned to
    0.5 (minmax); either case raises a warning. A column whose spread (its
    std, or max - min) overflows is a NumericError that names it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if mode == "zscore":
            lo = np.mean(features, axis=0)
            hi = spread = np.sqrt(np.mean((features - lo) ** 2, axis=0))  # population std
        else:
            lo, hi = np.min(features, axis=0), np.max(features, axis=0)
            spread = hi - lo
    _require_finite_columns(spread, mode)
    constant = spread == 0.0
    if np.any(constant):
        warnings.warn(f"{int(np.sum(constant))} constant feature column(s); "
                      + ("std set to 1" if mode == "zscore" else "mapped to 0.5"))
        if mode == "zscore":
            hi = np.where(constant, 1.0, hi)
    return NormalizationParams(mode, lo, hi)


def apply_normalization(features: np.ndarray, params: NormalizationParams) -> np.ndarray:
    """Apply fitted normalization to any split with a matching column count.
    A minmax spread, or a value once normalized, that overflows is a
    NumericError that names its column."""
    with np.errstate(over="ignore", invalid="ignore"):
        if params.mode == "zscore":
            out = (features - params.lo) / params.hi
        else:
            span = params.hi - params.lo
            # fit refuses a spread that overflows, but a checkpoint may hold one
            _require_finite_columns(span, params.mode)
            out = np.empty_like(features)
            const = span == 0.0
            out[:, const] = 0.5
            out[:, ~const] = (features[:, ~const] - params.lo[~const]) / span[~const]
    _require_finite_columns(out, params.mode)
    return out


def _require_finite_columns(values: np.ndarray, mode: str) -> None:
    """A NumericError that names the first feature column (1-based) of
    values [..., n_features] holding a value that is not finite."""
    bad = np.flatnonzero(~np.isfinite(np.atleast_2d(values)).all(axis=0))
    if bad.size:
        raise NumericError(f"{mode} normalization overflows in feature column {bad[0] + 1}")
