"""Deterministic DSP front end.

Butterworth bandpass design (bilinear transform with pre-warping,
second-order sections), zero-phase filtering, amplitude-threshold
artifact rejection, Welch PSD, spectral entropy, time-domain statistics,
and feature-matrix normalization. Everything is a pure function of its
inputs; summation order is fixed so results are bit-reproducible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataio import Epoch
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
    """One-sided power spectral density estimate."""

    freqs_hz: np.ndarray
    power: np.ndarray
    resolution_hz: float

    def __post_init__(self):
        self.freqs_hz = np.asarray(self.freqs_hz, dtype=float)
        self.power = np.asarray(self.power, dtype=float)
        if len(self.freqs_hz) != len(self.power):
            raise DataError("freqs and power must have equal length")
        if not np.all(np.isfinite(self.power)) or np.any(self.power < 0):
            raise NumericError("PSD contains negative or non-finite power")


@dataclass
class FeatureVector:
    """Parallel (values, names) pair for one epoch's features."""

    values: np.ndarray
    names: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if len(self.values) != len(self.names):
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
        kwargs = {k: np.asarray(d[k], dtype=float) for k in ("mean", "std", "min", "max") if k in d}
        return cls(mode=d["mode"], **kwargs)


@dataclass
class FeatureConfig:
    """Feature-extraction parameters."""

    bands: dict[str, tuple[float, float]] = field(default_factory=lambda: dict(EEG_BANDS))
    welch_segment_len: int = 256
    welch_overlap: float = 0.5
    welch_window: str = "hann"
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


def sosfilt(coeffs: FilterCoefficients, x: np.ndarray, zi: list[np.ndarray] | None = None):
    """Causal cascade filtering (direct form II transposed)."""
    y = np.asarray(x, dtype=float).copy()
    for idx, (b0, b1, b2, a1, a2) in enumerate(coeffs.sections):
        z1, z2 = (zi[idx] if zi is not None else (0.0, 0.0))
        out = np.empty_like(y)
        for i in range(len(y)):
            xi = y[i]
            yi = b0 * xi + z1
            z1 = b1 * xi - a1 * yi + z2
            z2 = b2 * xi - a2 * yi
            out[i] = yi
        y = out
    return y


def filtfilt(coeffs: FilterCoefficients, x: np.ndarray, padlen: int | None = None) -> np.ndarray:
    """Zero-phase forward-backward filtering with reflective edge padding.

    Default padding is 3x the filter order. Initial conditions are the
    steady-state response to the first padded sample, so constant inputs
    pass through a bandpass as exactly zero. The effective magnitude
    response is |H|^2.
    """
    x = np.asarray(x, dtype=float)
    if padlen is None:
        padlen = 3 * coeffs.order
    if len(x) <= 3 * coeffs.order:
        raise DataError(
            f"input length {len(x)} too short; need more than {3 * coeffs.order} samples"
        )
    padlen = min(padlen, len(x) - 1)
    left = 2.0 * x[0] - x[padlen:0:-1]
    right = 2.0 * x[-1] - x[-2 : -padlen - 2 : -1]
    ext = np.concatenate([left, x, right])
    zi_unit = _section_step_state(coeffs.sections)
    y = sosfilt(coeffs, ext, [z * ext[0] for z in zi_unit])
    y = y[::-1]
    y = sosfilt(coeffs, y, [z * y[0] for z in zi_unit])
    y = y[::-1]
    return y[padlen : len(ext) - padlen]


def reject_artifacts(epochs: list[Epoch], peak_uv: float) -> tuple[list[Epoch], int]:
    """Keep epochs whose peak absolute amplitude stays within peak_uv."""
    if not peak_uv > 0:
        raise ConfigError("peak_uv must be positive")
    kept = [e for e in epochs if np.max(np.abs(e.data)) <= peak_uv]
    return kept, len(epochs) - len(kept)


def welch_psd(
    x: np.ndarray,
    fs_hz: float,
    segment_len: int = 256,
    overlap_fraction: float = 0.5,
    window: str = "hann",
) -> Psd:
    """Welch PSD: averaged one-sided periodograms of overlapped windowed segments.

    Normalized by the window power, so the integral of the PSD estimates
    the signal variance plus DC power.
    """
    x = np.asarray(x, dtype=float)
    if segment_len < 2 or segment_len & (segment_len - 1):
        raise ConfigError(f"segment_len must be a power of two >= 2, got {segment_len}")
    if len(x) < segment_len:
        raise DataError(f"signal length {len(x)} shorter than segment {segment_len}")
    if not 0.0 <= overlap_fraction < 1.0:
        raise ConfigError("overlap_fraction must lie in [0, 1)")
    if window == "hann":
        w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment_len) / segment_len)
    elif window in ("rect", "rectangular", "boxcar"):
        w = np.ones(segment_len)
    else:
        raise ConfigError(f"unsupported window {window!r}")
    hop = max(1, int(round(segment_len * (1.0 - overlap_fraction))))
    n_segments = (len(x) - segment_len) // hop + 1
    scale = 1.0 / (fs_hz * np.sum(w * w))
    acc = np.zeros(segment_len // 2 + 1)
    for s in range(n_segments):
        seg = x[s * hop : s * hop + segment_len] * w
        spec = np.abs(np.fft.rfft(seg)) ** 2 * scale
        spec[1:-1] *= 2.0  # one-sided: double all bins except DC and Nyquist
        acc += spec
    power = acc / n_segments
    freqs = np.fft.rfftfreq(segment_len, d=1.0 / fs_hz)
    return Psd(freqs, power, fs_hz / segment_len)


def band_power(psd: Psd, low_hz: float, high_hz: float) -> float:
    """Trapezoidal integral of the PSD over [low_hz, high_hz]."""
    if not 0.0 <= low_hz < high_hz <= psd.freqs_hz[-1]:
        raise ConfigError(
            f"band ({low_hz}, {high_hz}) outside [0, {psd.freqs_hz[-1]}] or inverted"
        )
    sel = (psd.freqs_hz >= low_hz) & (psd.freqs_hz <= high_hz)
    if np.count_nonzero(sel) < 2:
        raise DataError(f"no PSD bins inside band ({low_hz}, {high_hz})")
    return float(np.trapezoid(psd.power[sel], psd.freqs_hz[sel]))


def spectral_entropy(psd: Psd) -> float:
    """Shannon entropy of the normalized PSD, scaled to [0, 1] by ln(n_bins)."""
    if len(psd.power) < 2:
        raise DataError("spectral entropy needs at least 2 bins")
    total = float(np.sum(psd.power))
    if total <= 0.0:
        raise DataError("spectral entropy undefined for an all-zero PSD")
    p = psd.power / total
    nz = p[p > 0.0]
    h = float(-np.sum(nz * np.log(nz)))
    return h / float(np.log(len(psd.power)))


def time_domain_stats(x: np.ndarray) -> FeatureVector:
    """Fixed-order time-domain statistics of one channel.

    Order: mean, population variance, skewness, excess kurtosis, RMS,
    zero-crossing count, Hjorth mobility, Hjorth complexity. On a
    constant signal the moment ratios and Hjorth parameters are
    undefined; they are reported as 0 with a warning.
    """
    x = np.asarray(x, dtype=float)
    if len(x) < 2:
        raise DataError("time_domain_stats needs at least 2 samples")
    mean = float(np.mean(x))
    var = float(np.mean((x - mean) ** 2))
    rms = float(np.sqrt(np.mean(x * x)))
    zc = int(np.sum(x[:-1] * x[1:] < 0.0))
    if var == 0.0:
        warnings.warn("constant signal: skewness/kurtosis/Hjorth reported as 0")
        skew = kurt = mobility = complexity = 0.0
    else:
        d = x - mean
        skew = float(np.mean(d**3) / var**1.5)
        kurt = float(np.mean(d**4) / var**2 - 3.0)
        dx = np.diff(x)
        var_dx = float(np.mean((dx - np.mean(dx)) ** 2))
        mobility = float(np.sqrt(var_dx / var))
        if var_dx == 0.0:
            warnings.warn("linear signal: Hjorth complexity reported as 0")
            complexity = 0.0
        else:
            ddx = np.diff(dx)
            var_ddx = float(np.mean((ddx - np.mean(ddx)) ** 2))
            complexity = float(np.sqrt(var_ddx / var_dx) / np.sqrt(var_dx / var))
    values = [mean, var, skew, kurt, rms, float(zc), mobility, complexity]
    return FeatureVector(np.array(values), list(TIME_DOMAIN_STAT_NAMES))


def extract_features(
    epoch: Epoch,
    fs_hz: float,
    config: FeatureConfig | None = None,
    channel_names: list[str] | None = None,
) -> FeatureVector:
    """Per-channel band powers, spectral entropy, and time-domain statistics.

    With the default five bands this yields 14 features per channel,
    named `<channel>.<feature>`.
    """
    cfg = config or FeatureConfig()
    n_ch, n_samp = epoch.data.shape
    if channel_names is None:
        channel_names = [f"ch{i}" for i in range(n_ch)]
    if len(channel_names) != n_ch:
        raise DataError(f"{len(channel_names)} channel names for {n_ch} channels")
    if n_samp < cfg.welch_segment_len:
        raise DataError(
            f"epoch length {n_samp} shorter than Welch segment {cfg.welch_segment_len}"
        )
    seg = cfg.welch_segment_len
    values: list[float] = []
    names: list[str] = []
    for ci, ch in enumerate(channel_names):
        sig = epoch.data[ci]
        psd = welch_psd(sig, fs_hz, seg, cfg.welch_overlap, cfg.welch_window)
        for bname, (lo, hi) in cfg.bands.items():
            hi_eff = min(hi, psd.freqs_hz[-1])
            values.append(band_power(psd, lo, hi_eff))
            names.append(f"{ch}.bandpower.{bname}")
        values.append(spectral_entropy(psd))
        names.append(f"{ch}.entropy")
        stats = time_domain_stats(sig)
        values.extend(stats.values)
        names.extend(f"{ch}.{n}" for n in stats.names)
    return FeatureVector(np.array(values), names)


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
