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

import warnings
from dataclasses import dataclass, field

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
    """Cascade of biquad sections (b0,b1,b2,a1,a2) plus design metadata."""

    sections: list[tuple[float, float, float, float, float]]
    order: int
    low_hz: float
    high_hz: float
    fs_hz: float

    def __post_init__(self):
        for b0, b1, b2, a1, a2 in self.sections:
            roots = np.roots([1.0, a1, a2])
            if np.any(np.abs(roots) >= 1.0):
                raise NumericError(f"unstable filter section (a1={a1}, a2={a2})")


@dataclass
class Psd:
    """One-sided power spectral density estimate, power [..., n_bins]."""

    freqs_hz: np.ndarray
    power: np.ndarray
    resolution_hz: float

    def __post_init__(self):
        self.freqs_hz = np.asarray(self.freqs_hz, dtype=float)
        self.power = np.asarray(self.power, dtype=float)
        if self.power.shape[-1:] != self.freqs_hz.shape:
            raise DataError("freqs and power must have equal length")
        if not np.all(np.isfinite(self.power)) or np.any(self.power < 0):
            raise NumericError("PSD contains negative or non-finite power")


@dataclass
class FeatureVector:
    """Feature values [..., n_features] with their parallel names."""

    values: np.ndarray
    names: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[-1] != len(self.names):
            raise DataError("feature values and names must be parallel")
        if len(set(self.names)) != len(self.names):
            raise DataError("feature names must be unique")


@dataclass
class NormalizationParams:
    """Per-feature statistics fitted on the training split only."""

    mode: str  # "zscore" | "minmax"
    mean: np.ndarray | None = None
    std: np.ndarray | None = None
    min: np.ndarray | None = None
    max: np.ndarray | None = None

    @property
    def n_features(self) -> int:
        ref = self.mean if self.mode == "zscore" else self.min
        return len(ref)

    def to_dict(self) -> dict:
        out = {"mode": self.mode}
        for key in ("mean", "std", "min", "max"):
            val = getattr(self, key)
            if val is not None:
                out[key] = [float(v) for v in val]
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "NormalizationParams":
        """Read statistics written by to_dict; anything that could not have
        been fitted is a DataError: an unknown mode, a missing, non-finite or
        ragged statistic, a zscore std <= 0 or a minmax max < min."""
        mode = d["mode"]
        keys = {"zscore": ("mean", "std"), "minmax": ("min", "max")}.get(mode)
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
        return cls(mode, **dict(zip(keys, (lo, hi))))


@dataclass
class FeatureConfig:
    """Feature-extraction parameters."""

    bands: dict[str, tuple[float, float]] = field(default_factory=lambda: dict(EEG_BANDS))
    welch_segment_len: int = 256
    welch_overlap: float = 0.5
    filter_low_hz: float = 0.5
    filter_high_hz: float = 45.0
    filter_order: int = 4
    artifact_threshold_uv: float = 100.0


def design_butterworth_bandpass(
    low_hz: float, high_hz: float, fs_hz: float, order: int = 4
) -> FilterCoefficients:
    """Design a digital Butterworth bandpass as second-order sections.

    `order` is the overall bandpass order (an order-4 bandpass has an
    order-2 lowpass prototype and two biquad sections). The analog
    prototype is mapped through the band transform and the bilinear
    transform with frequency pre-warping, so the digital magnitude at
    frequency f equals the analog Butterworth magnitude at the warped
    frequency 2*fs*tan(pi*f/fs) exactly. Gain is normalized to 1 at the
    warped center frequency.
    """
    if order not in (2, 4, 6, 8):
        raise ConfigError(f"order must be one of 2,4,6,8, got {order}")
    if not (0.0 < low_hz < high_hz < fs_hz / 2.0):
        raise ConfigError(
            f"band edges must satisfy 0 < low < high < fs/2, got ({low_hz}, {high_hz}) at fs {fs_hz}"
        )
    n = order // 2
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
    return FilterCoefficients(sections, order, low_hz, high_hz, fs_hz)


def _section_step_state(sections) -> list[np.ndarray]:
    """Steady-state DF2T internal state per section for a unit-step input."""
    states = []
    scale = 1.0
    for b0, b1, b2, a1, a2 in sections:
        a_mat = np.array([[-a1, 1.0], [-a2, 0.0]])
        b_vec = np.array([b1 - a1 * b0, b2 - a2 * b0])
        zi = np.linalg.solve(np.eye(2) - a_mat, b_vec)
        states.append(zi * scale)
        scale *= (b0 + b1 + b2) / (1.0 + a1 + a2) if abs(1.0 + a1 + a2) > 1e-300 else 0.0
    return states


def sosfilt(coeffs: FilterCoefficients, x: np.ndarray) -> np.ndarray:
    """Causal cascade filtering (direct form II transposed) along the last axis of
    the float array x, in place; returns x. Each section starts in its steady
    state for a constant input x[..., 0], so a constant signal passes as 0.

    The time axis is walked in blocks of about 8192 samples of all signals
    together: each block is copied time-major with the three input products
    formed up front, so each step works on contiguous rows. Every sample gets
    the same operations in the same order as a per-sample loop would apply.
    """
    zi = [np.multiply.outer(z, x[..., 0]) for z in _section_step_state(coeffs.sections)]
    xt = np.moveaxis(x, -1, 0)  # time-major view of x
    if xt.ndim == 1:
        xt = xt[:, None]  # keep each step a writable row, not a scalar
    step = max(1, 8192 // max(1, xt[0].size))
    for (b0, b1, b2, a1, a2), (z1, z2) in zip(coeffs.sections, zi):
        for start in range(0, len(xt), step):
            block = xt[start : start + step]
            y = np.multiply(block, b0, order="C")
            bx1 = np.multiply(block, b1, order="C")
            bx2 = np.multiply(block, b2, order="C")
            for yi, bx1i, bx2i in zip(y, bx1, bx2):
                yi += z1
                z1 = bx1i - a1 * yi + z2
                z2 = bx2i - a2 * yi
            block[...] = y
    return x


def filtfilt(coeffs: FilterCoefficients, x, padlen: int | None = None) -> np.ndarray:
    """Zero-phase forward-backward filtering along the last axis, with
    reflective edge padding.

    `x` is an array [..., n_samples] or a sequence of equal-shape arrays,
    filtered as their stack; the stack is written straight into the padded
    work array, which is then filtered in place. Default padding is 3x the
    filter order. Initial conditions are the steady-state response to the
    first padded sample, so constant inputs pass through a bandpass as
    exactly zero. The effective magnitude response is |H|^2.
    """
    stacked = not isinstance(x, np.ndarray)
    shape = (len(x), *np.shape(x[0])) if stacked else x.shape
    n = shape[-1]
    if n <= 3 * coeffs.order:
        raise DataError(f"input length {n} too short; need more than {3 * coeffs.order} samples")
    padlen = min(3 * coeffs.order if padlen is None else padlen, n - 1)
    ext = np.empty(shape[:-1] + (n + 2 * padlen,))
    body = ext[..., padlen : padlen + n]
    if stacked:
        np.stack(x, out=body)
    else:
        body[...] = x
    ext[..., :padlen] = 2.0 * body[..., :1] - body[..., padlen:0:-1]
    ext[..., padlen + n :] = 2.0 * body[..., -1:] - body[..., -2 : -padlen - 2 : -1]
    for y in (ext, ext[..., ::-1]):  # forward, then backward over the forward output
        sosfilt(coeffs, y)
    return body


def reject_artifacts(epochs: np.ndarray, peak_uv: float) -> tuple[np.ndarray, int]:
    """Indices of the epochs [n, ...] whose peak absolute amplitude stays
    within peak_uv, and the number rejected."""
    if not peak_uv > 0:
        raise ConfigError("peak_uv must be positive")
    peaks = np.max(np.abs(epochs), axis=tuple(range(1, np.ndim(epochs))))
    kept = np.flatnonzero(peaks <= peak_uv)
    return kept, len(epochs) - len(kept)


def welch_psd(
    x: np.ndarray,
    fs_hz: float,
    segment_len: int = 256,
    overlap_fraction: float = 0.5,
    window: str = "hann",
) -> Psd:
    """Welch PSD along the last axis: averaged one-sided periodograms of windowed segments.

    Normalized by the window power, so the integral of the PSD estimates
    the signal variance plus DC power.
    """
    x = np.asarray(x, dtype=float)
    if segment_len < 2 or segment_len & (segment_len - 1):
        raise ConfigError(f"segment_len must be a power of two >= 2, got {segment_len}")
    if x.shape[-1] < segment_len:
        raise DataError(f"signal length {x.shape[-1]} shorter than Welch segment {segment_len}")
    if not 0.0 <= overlap_fraction < 1.0:
        raise ConfigError("overlap_fraction must lie in [0, 1)")
    if window == "hann":
        w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment_len) / segment_len)
    elif window == "rect":
        w = np.ones(segment_len)
    else:
        raise ConfigError(f"unsupported window {window!r}")
    hop = max(1, int(round(segment_len * (1.0 - overlap_fraction))))
    segments = np.lib.stride_tricks.sliding_window_view(x, segment_len, axis=-1)[..., ::hop, :]
    scale = 1.0 / (fs_hz * np.sum(w * w))
    spec = np.abs(np.fft.rfft(segments * w)) ** 2 * scale
    spec[..., 1:-1] *= 2.0  # one-sided: double all bins except DC and Nyquist
    power = np.sum(spec, axis=-2) / segments.shape[-2]
    freqs = np.fft.rfftfreq(segment_len, d=1.0 / fs_hz)
    return Psd(freqs, power, fs_hz / segment_len)


def band_power(psd: Psd, low_hz: float, high_hz: float) -> np.ndarray:
    """Trapezoidal integral of the PSD over [low_hz, high_hz], per signal."""
    freqs = psd.freqs_hz
    if not 0.0 <= low_hz < high_hz <= freqs[-1]:
        raise ConfigError(f"band ({low_hz}, {high_hz}) outside [0, {freqs[-1]}] or inverted")
    lo = np.searchsorted(freqs, low_hz, side="left")
    hi = np.searchsorted(freqs, high_hz, side="right")
    if hi - lo < 2:
        raise DataError(f"no PSD bins inside band ({low_hz}, {high_hz})")
    # a slice, not a boolean mask: the band's bins stay contiguous, so each
    # signal's sum runs in the same order whatever it is batched with
    return np.trapezoid(psd.power[..., lo:hi], freqs[lo:hi], axis=-1)


def spectral_entropy(psd: Psd) -> np.ndarray:
    """Shannon entropy of the normalized PSD, scaled to [0, 1] by ln(n_bins), per signal."""
    n_bins = psd.power.shape[-1]
    if n_bins < 2:
        raise DataError("spectral entropy needs at least 2 bins")
    total = np.sum(psd.power, axis=-1, keepdims=True)
    if np.any(total <= 0.0):
        raise DataError("spectral entropy undefined for an all-zero PSD")
    p = psd.power / total
    h = -np.sum(p * np.log(np.where(p > 0.0, p, 1.0)), axis=-1)  # 0 log 0 = 0
    return h / np.log(n_bins)


def time_domain_stats(x: np.ndarray) -> FeatureVector:
    """Fixed-order time-domain statistics along the last axis.

    Order: mean, population variance, skewness, excess kurtosis, RMS,
    zero-crossing count, Hjorth mobility, Hjorth complexity; values are
    [..., 8]. On a constant signal the moment ratios and Hjorth parameters
    are undefined, and on a linear one the Hjorth complexity; they are
    reported as 0 with one warning per case.
    """
    x = np.ascontiguousarray(x, dtype=float)
    if x.shape[-1] < 2:
        raise DataError("time_domain_stats needs at least 2 samples")
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
    # powers of the variance go through Python's float pow one value at a time:
    # numpy's vectorized power and square can differ from it in the last bit
    var_obj = np.asarray(var_safe, dtype=object)
    skew = m3 / np.asarray(var_obj**1.5, dtype=float)
    kurt = m4 / np.asarray(var_obj**2, dtype=float) - 3.0
    mobility = np.sqrt(var_dx / var_safe)
    complexity = np.sqrt(var_ddx / np.where(flat, 1.0, var_dx)) / np.where(flat, 1.0, mobility)
    skew, kurt, mobility = (np.where(constant, 0.0, v) for v in (skew, kurt, mobility))
    values = [mean[..., 0], var, skew, kurt, rms, zc, mobility, np.where(flat, 0.0, complexity)]
    return FeatureVector(np.stack(values, axis=-1), list(TIME_DOMAIN_STAT_NAMES))


def extract_features(
    epochs: np.ndarray,
    fs_hz: float,
    config: FeatureConfig | None = None,
    channel_names: list[str] | None = None,
) -> FeatureVector:
    """Per-channel band powers, spectral entropy, and time-domain statistics.

    `epochs` is [..., n_ch, n_samples]; values are [..., n_features]. With
    the default five bands this yields 14 features per channel, named
    `<channel>.<feature>` and grouped by channel.
    """
    cfg = config or FeatureConfig()
    n_ch = np.shape(epochs)[-2]
    if channel_names is None:
        channel_names = [f"ch{i}" for i in range(n_ch)]
    if len(channel_names) != n_ch:
        raise DataError(f"{len(channel_names)} channel names for {n_ch} channels")
    psd = welch_psd(epochs, fs_hz, cfg.welch_segment_len, cfg.welch_overlap)
    spectral = [band_power(psd, lo, min(hi, psd.freqs_hz[-1])) for lo, hi in cfg.bands.values()]
    spectral.append(spectral_entropy(psd))
    per_channel = np.concatenate(
        [np.stack(spectral, axis=-1), time_domain_stats(epochs).values], axis=-1
    )  # [..., n_ch, 14]
    kinds = [f"bandpower.{b}" for b in cfg.bands] + ["entropy"] + TIME_DOMAIN_STAT_NAMES
    names = [f"{ch}.{kind}" for ch in channel_names for kind in kinds]
    return FeatureVector(per_channel.reshape(per_channel.shape[:-2] + (len(names),)), names)


def fit_normalization(features: np.ndarray, mode: str = "zscore") -> NormalizationParams:
    """Fit per-column normalization statistics (training split only).

    Constant columns get std=1 (zscore maps them to 0) or are pinned to
    0.5 (minmax); either case raises a warning.
    """
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise DataError("fit_normalization needs a non-empty 2-D matrix")
    if mode == "zscore":
        mean = np.mean(x, axis=0)
        std = np.sqrt(np.mean((x - mean) ** 2, axis=0))  # population std
        constant = std == 0.0
        if np.any(constant):
            warnings.warn(f"{int(np.sum(constant))} constant feature column(s); std set to 1")
            std = np.where(constant, 1.0, std)
        return NormalizationParams(mode="zscore", mean=mean, std=std)
    if mode == "minmax":
        lo = np.min(x, axis=0)
        hi = np.max(x, axis=0)
        if np.any(lo == hi):
            warnings.warn(
                f"{int(np.sum(lo == hi))} constant feature column(s); mapped to 0.5"
            )
        return NormalizationParams(mode="minmax", min=lo, max=hi)
    raise ConfigError(f"unknown normalization mode {mode!r}")


def apply_normalization(features: np.ndarray, params: NormalizationParams) -> np.ndarray:
    """Apply fitted normalization to any split with a matching column count."""
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.n_features:
        raise DataError(
            f"feature count mismatch: params expect {params.n_features}, got {x.shape[1] if x.ndim == 2 else 'non-matrix'}"
        )
    if params.mode == "zscore":
        return (x - params.mean) / params.std
    span = params.max - params.min
    out = np.empty_like(x)
    const = span == 0.0
    out[:, const] = 0.5
    out[:, ~const] = (x[:, ~const] - params.min[~const]) / span[~const]
    return out
