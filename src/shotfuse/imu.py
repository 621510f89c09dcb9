"""Motion shot-likelihood pipeline: axis decomposition, low-pass, peak function.

A swing is roughly circular motion of the forearm, so the x axis (along the
forearm) carries radial acceleration and the y/z magnitude the tangential
part; the same split applies to angular velocity. The peak function is the
product of the macroframe-mean-subtracted radial acceleration and
tangential angular velocity, which spikes at impacts. Components sit on
the series.PERIOD_MS grid of the audio likelihood.

There is one split path and one grid path. split_components turns (7, k)
IMU_FIELDS columns into the timestamps and four component rows, and
grid_components checks the timestamps and snaps the rows onto the grid.
dataio.read_imu_csv runs the split on each parsed chunk, so a file's
samples are never held as one (7, n) block, and decompose runs both on an
in-memory :class:`ImuStream` (synthesize, tests). prepare_components only
low-passes the components it is given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import PERIOD_MS, SampleSeries, convolve, deviation, freeze, freeze_in_place

__all__ = [
    "ACCEL_RANGE_G",
    "GYRO_RANGE_DPS",
    "IMU_RATE_HZ",
    "LOWPASS_CUTOFF_HZ",
    "IPF_WINDOW",
    "IMU_FIELDS",
    "ImuStream",
    "first_invalid_sample",
    "ImuComponents",
    "split_components",
    "grid_components",
    "decompose",
    "lowpass",
    "prepare_components",
    "ipf",
]

ACCEL_RANGE_G = 8.0
GYRO_RANGE_DPS = 2000.0
IMU_RATE_HZ = 1000.0 / PERIOD_MS
#: Cutoff of the low-pass that smooths the IMU components before the motion peak function.
LOWPASS_CUTOFF_HZ = 10.0
#: Samples of the low-pass impulse response kept: its poles sit at radius 0.642,
#: so every later sample is below 2.4e-20.
LOWPASS_TAPS = 100
#: Macroframe of the peak function: 4 past samples, self, 5 future samples.
IPF_WINDOW = 10


#: Column order of an IMU stream, and the IMU CSV's column names: timestamp, then acceleration and angular velocity.
IMU_FIELDS = ("t_ms", "ax", "ay", "az", "gx", "gy", "gz")


def first_invalid_sample(columns: np.ndarray) -> tuple[int, str] | None:
    """Index and reason of the first sample that breaks a finite or range invariant.

    columns is a (7, n) array of IMU_FIELDS rows. Within one sample a
    non-finite value is reported first, then acceleration, then angular
    velocity out of range. Every temporary is boolean, so the check holds
    no float copy of the samples.
    """
    checks = (
        ("values must be finite", ~np.isfinite(columns).all(axis=0)),
        (f"acceleration exceeds +/-{ACCEL_RANGE_G:g} g",
         ((columns[1:4] > ACCEL_RANGE_G) | (columns[1:4] < -ACCEL_RANGE_G)).any(axis=0)),
        (f"angular velocity exceeds +/-{GYRO_RANGE_DPS:g} deg/s",
         ((columns[4:7] > GYRO_RANGE_DPS) | (columns[4:7] < -GYRO_RANGE_DPS)).any(axis=0)),
    )
    bad = checks[0][1] | checks[1][1] | checks[2][1]
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    return i, next(reason for reason, mask in checks if mask[i])


@dataclass(frozen=True, eq=False)
class ImuStream:
    """IMU samples as one read-only (7, n) float block whose rows follow IMU_FIELDS.

    Row 0 holds the timestamps (ms), rows 1-3 acceleration (g) and rows
    4-6 angular velocity (deg/s). The block is taken through series.freeze,
    so a frozen block is adopted and anything else copied, then checked
    once by first_invalid_sample.
    """

    block: np.ndarray

    def __post_init__(self):
        block = freeze(self.block)
        if block.ndim != 2 or block.shape[0] != len(IMU_FIELDS):
            raise ValueError(f"expected a ({len(IMU_FIELDS)}, n) float block, got shape {block.shape}")
        bad = first_invalid_sample(block)
        if bad is not None:
            raise ValueError(f"sample {bad[0]}: {bad[1]}")
        object.__setattr__(self, "block", block)

    def __len__(self) -> int:
        return self.block.shape[1]


@dataclass(frozen=True, eq=False)
class ImuComponents:
    """Radial/tangential split of the IMU stream, one series per component."""

    a_rad: SampleSeries
    a_tan: SampleSeries
    w_rad: SampleSeries
    w_tan: SampleSeries

    def __post_init__(self):
        first = self.a_rad
        for s in (self.a_tan, self.w_rad, self.w_tan):
            if s.start_time != first.start_time or len(s) != len(first):
                raise ValueError("component series must share start and length")

    def __len__(self) -> int:
        return len(self.a_rad)


#: Samples per slice of the whole-stream checks and the grid pick, so
#: their temporaries stay small however long the stream is.
_SLICE_SAMPLES = 8192


def _slices(n: int):
    """(lo, hi) bounds that cut range(n) into pieces of _SLICE_SAMPLES."""
    return ((lo, min(lo + _SLICE_SAMPLES, n)) for lo in range(0, n, _SLICE_SAMPLES))


def _nearest(t: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Index of the sample nearest to each grid slot lo .. hi - 1; a tie goes to the earlier one."""
    grid = t[0] + np.arange(lo, hi) * PERIOD_MS
    right = np.searchsorted(t, grid)
    right = np.clip(right, 1, t.size - 1)
    left = right - 1
    return np.where(np.abs(t[left] - grid) <= np.abs(t[right] - grid), left, right)


def _on_own_slots(t: np.ndarray, lo: int, hi: int) -> bool:
    """Whether _nearest picks sample s for grid slot s, for every s in lo .. hi - 1.

    With e = |t[s] - slot| the distance of sample s to its own slot, it
    does when the next sample lies at least e after the slot and the
    previous one more than e before it (a tie goes to the earlier sample).
    These are the float differences _nearest compares: t strictly
    increases, so their signs are exact. A False where _nearest would
    still pick s (two samples before the slot whose distances round
    equal) only costs grid_components its copy of the same samples.
    """
    grid = t[0] + np.arange(lo, hi) * PERIOD_MS
    own = np.abs(t[lo:hi] - grid)
    after = t[lo + 1 : hi + 1]  # the last sample has none
    first = 1 if lo == 0 else 0  # nor has the first a previous one
    return bool(
        np.all(after - grid[: after.size] >= own[: after.size])
        and np.all(grid[first:] - t[lo - 1 + first : hi - 1] > own[first:])
    )


def _grid_pick(t: np.ndarray) -> np.ndarray | None:
    """Index of the sample nearest to each slot of an exact IMU_RATE_HZ grid from t[0] (_nearest).

    None when every sample already sits on its own slot. The check and
    the pick run one _SLICE_SAMPLES slice of slots at a time.
    """
    if t.size == 1:
        return None
    n = int(round((t[-1] - t[0]) / PERIOD_MS)) + 1
    if n == t.size and all(_on_own_slots(t, lo, hi) for lo, hi in _slices(n)):
        return None
    pick = np.empty(n, dtype=np.intp)
    for lo, hi in _slices(n):
        pick[lo:hi] = _nearest(t, lo, hi)
    return pick


def _timing_fault(t: np.ndarray) -> tuple[int, str] | None:
    """Index and reason of the sample that breaks the timestamp invariants, or None.

    Timestamps must strictly increase, with gaps inside [PERIOD_MS/2,
    2*PERIOD_MS]. The sample after the first step that goes back is
    reported, else the sample after the first gap; the steps are checked
    one _SLICE_SAMPLES slice at a time.
    """
    gap = None
    for lo, hi in _slices(t.size - 1):
        steps = np.diff(t[lo : hi + 1])
        back = steps <= 0
        if back.any():
            return lo + int(np.argmax(back)) + 1, "unordered stream"
        if gap is None:
            off = (steps > 2 * PERIOD_MS) | (steps < PERIOD_MS / 2)
            if off.any():
                gap = lo + int(np.argmax(off)) + 1
    return None if gap is None else (gap, "stream gap")


def _butterworth_lowpass() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients b, a and the first LOWPASS_TAPS samples of the impulse response.

    The 2nd-order Butterworth low-pass at LOWPASS_CUTOFF_HZ for IMU_RATE_HZ,
    by the bilinear transform with the cutoff prewarped to K = tan(pi fc / fs);
    the impulse response runs its difference equation from zero state.
    """
    k = np.tan(np.pi * LOWPASS_CUTOFF_HZ / IMU_RATE_HZ)
    norm = 1.0 + np.sqrt(2.0) * k + k * k
    b = k * k / norm * np.array([1.0, 2.0, 1.0])
    a = np.array([1.0, 2.0 * (k * k - 1.0) / norm, (1.0 - np.sqrt(2.0) * k + k * k) / norm])
    drive = np.zeros(LOWPASS_TAPS)
    drive[: b.size] = b
    h = np.zeros(LOWPASS_TAPS + 2)  # h[:2] is the zero initial state
    for n in range(LOWPASS_TAPS):
        h[n + 2] = drive[n] - a[1] * h[n + 1] - a[2] * h[n]
    return freeze(b), freeze(a), freeze(h[2:])


LOWPASS_B, LOWPASS_A, LOWPASS_RESPONSE = _butterworth_lowpass()


def lowpass(x: SampleSeries) -> SampleSeries:
    """2nd-order Butterworth low-pass at LOWPASS_CUTOFF_HZ of a series sampled at IMU_RATE_HZ.

    Causal with zero initial state, length kept: the input convolved with
    LOWPASS_RESPONSE and cut to its length.
    """
    if len(x) == 0:
        raise ValueError("empty signal")
    return x.with_values(freeze_in_place(convolve(x.values, LOWPASS_RESPONSE, 0, len(x))))


def split_components(columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """t, a_rad, a_tan, w_rad and w_tan of a (7, n) array of IMU_FIELDS rows.

    Radial terms are the x-axis rows, as they are; tangential terms are the
    y/z magnitudes (hence non-negative), new arrays. Every term is per
    sample, so splitting a stream chunk by chunk gives the same values as
    splitting it whole, and picking grid samples before or after the split
    gives the same components.
    """
    t, ax, ay, az, gx, gy, gz = columns
    return t, ax, np.hypot(ay, az), gx, np.hypot(gy, gz)


def grid_components(rows: list, where) -> ImuComponents:
    """The components on the PERIOD_MS grid, once the timestamps pass their checks.

    rows is the list [t, a_rad, a_tan, w_rad, w_tan] of split_components,
    t holding the timestamps of the others' samples. A stream that is
    empty, goes back in time or has a gap fails, where(i) naming its
    sample i (_timing_fault). Off the grid, snapping by nearest-sample
    assignment (_grid_pick) replaces each component row in the list by its
    pick at the grid's samples, so a row the list alone holds is freed
    once it is picked. Each row is then adopted as a component and frozen
    in place: pass arrays that nothing else writes.
    """
    t = rows[0]
    if t.size == 0:
        raise ValueError("empty stream")
    fault = _timing_fault(t)
    if fault is not None:
        raise ValueError(f"{where(fault[0])}: {fault[1]}")
    pick = _grid_pick(t)
    if pick is not None:
        for i in range(1, len(rows)):
            rows[i] = rows[i][pick]
    start = float(t[0])
    return ImuComponents(*(SampleSeries(start, freeze_in_place(row)) for row in rows[1:]))


def decompose(stream: ImuStream) -> ImuComponents:
    """The radial/tangential components of an in-memory stream, on the PERIOD_MS grid.

    split_components and grid_components on the stream's block, errors
    naming the sample index. On the grid, a_rad and w_rad view the
    stream's read-only block.
    """
    return grid_components(list(split_components(stream.block)), where=lambda i: f"sample {i}")


def prepare_components(comps: ImuComponents) -> ImuComponents:
    """Low-pass the two components the peak function consumes.

    Only a_rad and w_tan are filtered; a_tan and w_rad stay raw for the
    fusion feature extractor and are passed on as they are.
    """
    return ImuComponents(a_rad=lowpass(comps.a_rad), a_tan=comps.a_tan, w_rad=comps.w_rad,
                         w_tan=lowpass(comps.w_tan))


def ipf(components: ImuComponents) -> SampleSeries:
    """Product of mean-subtracted a_rad and w_tan over a 10-sample macroframe.

    The window at index i spans samples i-4 .. i+5; only indices with the
    full window are emitted, so the output is 9 samples shorter and starts
    4 sample periods later. Callers are expected to pass low-passed a_rad
    and w_tan (see :func:`prepare_components`).
    """
    lead = IPF_WINDOW // 2 - 1  # 4 past samples
    out = deviation(components.a_rad.values, IPF_WINDOW, lead)
    out *= deviation(components.w_tan.values, IPF_WINDOW, lead)
    return SampleSeries(components.a_rad.start_time + lead * PERIOD_MS, freeze_in_place(out))

