
import numpy as np
import pytest

import shotfuse.imu
from shotfuse import ImuComponents, ImuStream, SampleSeries, decompose, ipf, lowpass, prepare_components
from shotfuse.imu import IMU_FIELDS, IPF_WINDOW, prepare_components
from shotfuse.series import freeze_in_place


def samples(t, **cols):
    """Stream at timestamps t; each sensor column is an array or a constant (default 0)."""
    t = np.asarray(t, dtype=float)
    return ImuStream([t, *(np.broadcast_to(cols.get(name, 0.0), t.shape) for name in IMU_FIELDS[1:])])


def stream(n, rng=None):
    t = 10.0 * np.arange(n)
    if rng is None:
        return samples(t)
    a = rng.uniform(-2.0, 2.0, (3, n))
    g = rng.uniform(-500.0, 500.0, (3, n))
    return ImuStream([t, *a, *g])


def components(a_rad, w_tan):
    n = len(a_rad)
    zero = SampleSeries(0.0, np.zeros(n))
    return ImuComponents(
        a_rad=SampleSeries(0.0, a_rad),
        a_tan=zero,
        w_rad=zero,
        w_tan=SampleSeries(0.0, w_tan),
    )


# --- ImuStream invariants ----------------------------------------------------


def test_record_range_checks():
    with pytest.raises(ValueError, match="sample 1: acceleration exceeds"):
        samples([0.0, 10.0], ax=[0.0, 8.5])
    with pytest.raises(ValueError, match="sample 0: angular velocity exceeds"):
        samples([0.0], gz=2500.0)
    # the first bad sample is reported, and a non-finite value outranks a range breach
    with pytest.raises(ValueError, match="sample 2: values must be finite"):
        samples([0.0, 10.0, 20.0, 30.0], ay=[0.0, 0.0, np.nan, 0.0], gx=[0.0, 0.0, 3000.0, 3000.0])
    with pytest.raises(ValueError, match=r"expected a \(7, n\) float block, got shape \(6, 3\)"):
        ImuStream(np.zeros((6, 3)))
    ok = samples([0.0, 10.0], ax=8.0, gz=-2000.0)  # boundary values allowed
    assert len(ok) == 2


def test_stream_adopts_a_frozen_block_without_copying():
    block = np.zeros((7, 3000))
    block[0] = 10.0 * np.arange(3000)
    freeze_in_place(block)
    s = ImuStream(block)
    assert s.block is block and len(s) == 3000
    # A transposed (n, 7) table is not C-contiguous: it is copied into a block of rows.
    table = block.T.copy()
    s = ImuStream(freeze_in_place(table).T)
    assert not np.shares_memory(s.block, table) and s.block.flags.c_contiguous
    assert np.array_equal(s.block, block)
    bad = block.copy()
    bad[4, 2500] = 9000.0
    with pytest.raises(ValueError, match="sample 2500: angular velocity exceeds"):
        ImuStream(freeze_in_place(bad))


@pytest.mark.parametrize("alias", ["writeable array", "read-only view of a writeable array"])
def test_stream_copies_a_block_an_alias_can_write(alias):
    base = np.zeros((7, 50))
    base[0] = 10.0 * np.arange(50)
    given = base if alias == "writeable array" else base[:]
    given.flags.writeable = alias == "writeable array"
    s = ImuStream(given)
    assert not np.shares_memory(s.block, base) and not s.block.flags.writeable
    assert given.flags.writeable == (alias == "writeable array")  # the caller's flag is left as it was
    # A NaN written through the base after the check does not reach the stream.
    base[1, 10] = np.nan
    assert np.isfinite(s.block).all()


# --- decompose ---------------------------------------------------------------


def test_decompose_345_triangle():
    comps = decompose(samples([0.0, 10.0, 20.0], ax=1.0, ay=3.0, az=4.0))
    assert np.allclose(comps.a_rad.values, 1.0)
    assert np.allclose(comps.a_tan.values, 5.0)


def test_decompose_zero_stream():
    comps = decompose(stream(5))
    for s in (comps.a_rad, comps.a_tan, comps.w_rad, comps.w_tan):
        assert np.allclose(s.values, 0.0)


def test_decompose_matches_formula(rng):
    s = stream(40, rng=rng)
    comps = decompose(s)
    for k in range(40):
        _, ax, ay, az, gx, gy, gz = s.block[:, k]
        assert comps.a_rad.values[k] == pytest.approx(ax, abs=1e-12)
        assert comps.a_tan.values[k] == pytest.approx(np.sqrt(ay**2 + az**2), rel=1e-12)
        assert comps.w_rad.values[k] == pytest.approx(gx, abs=1e-12)
        assert comps.w_tan.values[k] == pytest.approx(np.sqrt(gy**2 + gz**2), rel=1e-12)


def test_decompose_tangential_magnitudes_squared(rng):
    s = stream(50, rng=rng)
    comps = decompose(s)
    assert np.allclose(comps.a_tan.values**2, s.block[2] ** 2 + s.block[3] ** 2, atol=1e-12)


def test_decompose_unordered_stream():
    with pytest.raises(ValueError, match="^sample 2: unordered stream$"):
        decompose(samples([0.0, 10.0, 5.0]))


def test_decompose_stream_gap():
    with pytest.raises(ValueError, match="^sample 2: stream gap$"):
        decompose(samples([0.0, 10.0, 35.0]))
    with pytest.raises(ValueError, match="^sample 1: stream gap$"):
        decompose(samples([0.0, 2.0, 12.0]))


def test_decompose_empty_stream():
    with pytest.raises(ValueError, match="^empty stream$"):
        decompose(ImuStream(np.empty((7, 0))))


def test_decompose_tolerates_jitter():
    comps = decompose(samples([0.0, 9.0, 20.5, 30.0]))
    assert len(comps.a_rad) == 4


def test_on_grid_stream_is_decomposed_without_a_regrid_copy(rng):
    imu = stream(50, rng)
    block = imu.block
    assert block.shape == (7, 50) and not block.flags.writeable
    comps = decompose(imu)
    # a_rad and w_rad are the stream's own rows, and the tangential ones are new magnitudes.
    assert np.shares_memory(comps.a_rad.values, block[1]) and np.shares_memory(comps.w_rad.values, block[4])
    assert not np.shares_memory(comps.a_tan.values, block) and not np.shares_memory(comps.w_tan.values, block)
    assert np.array_equal(comps.a_rad.values, block[1]) and np.array_equal(comps.w_rad.values, block[4])
    jittered = decompose(samples([0.0, 9.0, 20.5, 30.0], ax=[1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(jittered.a_rad.values, [1.0, 2.0, 3.0, 4.0])


def test_prepare_components_low_passes_two_and_passes_two_on(rng):
    raw = decompose(stream(50, rng))
    comps = prepare_components(raw)
    assert len(comps) == len(raw) == 50
    assert comps.a_tan is raw.a_tan and comps.w_rad is raw.w_rad
    for name in ("a_rad", "w_tan"):
        filtered = getattr(comps, name).values
        assert np.array_equal(filtered, lowpass(getattr(raw, name)).values), name
        # Each low-passed array is owned and adopted as made, not copied again.
        assert filtered.base is None, name


def regrid(t, columns):
    """columns picked at _grid_pick's samples, or columns itself where it picks none."""
    pick = shotfuse.imu._grid_pick(t)
    return columns if pick is None else columns[:, pick]


def regrid_whole(t, columns):
    """regrid's result over whole arrays: the grid, its neighbors and the pick in one pass each."""
    if t.size == 1:
        return columns
    n = int(round((t[-1] - t[0]) / 10.0)) + 1
    grid = t[0] + np.arange(n) * 10.0
    right = np.clip(np.searchsorted(t, grid), 1, t.size - 1)
    left = right - 1
    pick = np.where(np.abs(t[left] - grid) <= np.abs(t[right] - grid), left, right)
    return columns if np.array_equal(pick, np.arange(t.size)) else columns[:, pick]


def gap_check_whole(t):
    gaps = np.diff(t)
    if np.any(gaps <= 0):
        return "unordered stream"
    if np.any(gaps > 20.0) or np.any(gaps < 5.0):
        return "stream gap"
    return None


@pytest.mark.parametrize("slice_samples", [1, 7, 64, 8192])
def test_sliced_regrid_and_gap_check_match_the_whole_array_formula(monkeypatch, rng, slice_samples):
    monkeypatch.setattr(shotfuse.imu, "_SLICE_SAMPLES", slice_samples)
    n = 300
    on_grid = 1234.5 + 10.0 * np.arange(n)
    streams = {
        "on grid": on_grid,
        "jittered": on_grid + rng.uniform(-2.4, 2.4, n),  # every sample stays nearest its own slot
        "off grid": 1234.5 + np.cumsum(rng.uniform(5.0, 20.0, n)),  # slots gain and lose samples
        "tie": np.r_[0.0, 5.0, 15.0, 30.0],  # slot 1 (10 ms) sits halfway between two samples
        "one sample": np.array([7.0]),
    }
    for name, t in streams.items():
        columns = rng.standard_normal((6, t.size))
        expected, got = regrid_whole(t, columns), regrid(t, columns)
        assert (got is columns) == (expected is columns), name
        assert np.array_equal(got, expected), name
    columns = rng.standard_normal((6, n))
    assert shotfuse.imu._grid_pick(streams["jittered"]) is None
    assert shotfuse.imu._grid_pick(streams["off grid"]).shape != (n,)

    # An order break after a gap still reads as unordered, as on the whole stream.
    for t in (on_grid, np.r_[on_grid[:100], on_grid[100:] + 50.0], np.r_[on_grid[:250], on_grid[250:] - 15.0],
              np.r_[on_grid[:20], on_grid[20:] + 50.0][np.r_[:280, 281, 280, 282:n]]):
        expected = gap_check_whole(t)
        if expected is None:
            assert len(decompose(samples(t)).a_rad) == round((t[-1] - t[0]) / 10.0) + 1
        else:
            with pytest.raises(ValueError, match=expected):
                decompose(samples(t))


@pytest.mark.parametrize("slice_samples", [1, 2, 8192])
def test_on_grid_check_settles_ties_like_the_whole_array_formula(monkeypatch, rng, slice_samples):
    monkeypatch.setattr(shotfuse.imu, "_SLICE_SAMPLES", slice_samples)
    streams = {
        "sample midway between two slots": ([0.0, 15.0, 20.0, 30.0], True),
        "slot midway, tie to its own sample": ([0.0, 5.0, 15.0, 30.0], True),
        "slot midway, tie to the sample before": ([0.0, 15.0, 25.0, 30.0], False),
        "first slot midway, tie to sample 0": ([0.0, 20.0, 25.0], False),
        "first slots near their samples": ([0.0, 5.0, 20.0, 30.0], True),
        "last slot midway, tie to the sample before": ([0.0, 10.0, 20.0, 35.0, 45.0], False),
        "last slot nearest its own sample": ([0.0, 10.0, 20.0, 30.0, 44.9], True),
        "two samples": ([0.0, 10.0], True),
    }
    for name, (t, on_grid) in streams.items():
        for start in (0.0, 1234.5, 1.7e9 + 0.3):  # the last start rounds the distances
            t_ms = start + np.asarray(t)
            columns = rng.standard_normal((6, t_ms.size))
            expected, got = regrid_whole(t_ms, columns), regrid(t_ms, columns)
            assert (got is columns) == (expected is columns), (name, start)
            assert np.array_equal(got, expected), (name, start)
            if start != 1.7e9 + 0.3:
                assert (got is columns) == on_grid, (name, start)


# --- ipf ----------------------------------------------------------------------


def test_ipf_constant_components_zero():
    out = ipf(components(np.full(30, 2.0), np.full(30, 400.0)))
    assert np.allclose(out.values, 0.0, atol=1e-12)
    assert len(out) == 30 - 9


def test_ipf_zero_second_factor():
    a = np.zeros(30)
    a[15] = 3.0
    out = ipf(components(a, np.full(30, 7.0)))
    assert np.allclose(out.values, 0.0, atol=1e-12)


def test_ipf_matches_direct_formula(rng):
    a = rng.uniform(-2.0, 2.0, 40)
    w = rng.uniform(0.0, 500.0, 40)
    out = ipf(components(a, w))
    for j in range(len(out)):
        i = j + 4
        mean_a = np.mean(a[i - 4 : i + 6])
        mean_w = np.mean(w[i - 4 : i + 6])
        expected = (a[i] - mean_a) * (w[i] - mean_w)
        assert out.values[j] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_ipf_length_and_start():
    out = ipf(components(np.arange(25, dtype=float), np.ones(25)))
    assert len(out) == 25 - 9
    assert out.start_time == 40.0


def test_ipf_insufficient_context():
    with pytest.raises(ValueError, match="insufficient context"):
        ipf(components(np.zeros(IPF_WINDOW - 1), np.zeros(IPF_WINDOW - 1)))


def test_ipf_sign_symmetry(rng):
    a = rng.uniform(-1.0, 1.0, 30)
    w = rng.uniform(-1.0, 1.0, 30)
    plus = ipf(components(a, w))
    minus = ipf(components(a, -w))
    assert np.allclose(plus.values, -minus.values, atol=1e-12)


# --- ipf(prepare_components(...)) ----------------------------------------------


def test_likelihood_zero_stream():
    out = ipf(prepare_components(decompose(stream(100))))
    assert np.allclose(out.values, 0.0, atol=1e-12)


def bump_stream(n, center_idx, a_peak=3.0, w_peak=400.0, with_gyro=True, rng=None):
    width = 15
    bump = np.sin(np.pi * (np.arange(width) + 0.5) / width)
    ax = np.zeros(n)
    gy = np.zeros(n)
    lo = center_idx - width // 2
    ax[lo : lo + width] += a_peak * bump
    if with_gyro:
        gy[lo : lo + width] += w_peak * bump
    noise = rng.normal(0.0, 0.01, (2, n)) if rng is not None else np.zeros((2, n))
    return samples(10.0 * np.arange(n), ax=ax + noise[0], gy=gy + noise[1])


def test_likelihood_colocated_bump_peak_location():
    out = ipf(prepare_components(decompose(bump_stream(300, 150))))
    peak_time = out.times()[int(np.argmax(out.values))]
    assert abs(peak_time - 1500.0) <= 50.0


def test_likelihood_accel_only_bump_is_negligible():
    both = ipf(prepare_components(decompose(bump_stream(300, 150, with_gyro=True))))
    accel_only = ipf(prepare_components(decompose(bump_stream(300, 150, with_gyro=False))))
    assert np.max(np.abs(accel_only.values)) < 0.01 * np.max(np.abs(both.values))


def test_lowpass_reduces_ipf_noise_variance():
    rng = np.random.default_rng(23)
    for _ in range(10):
        s = stream(200, rng=rng)
        raw = ipf(decompose(s))
        filtered = ipf(prepare_components(decompose(s)))
        assert np.var(filtered.values) < np.var(raw.values)
