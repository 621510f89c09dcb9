import csv
import json
import struct
import tracemalloc
import wave

import numpy as np
import pytest

import shotfuse.dataio
import shotfuse.imu
from shotfuse import (
    FilterModel,
    ForestModel,
    audio_likelihood,
    ImuStream,
    LabelSet,
    PcmAudio,
    SampleSeries,
    SynthConfig,
    synthesize,
    train_forest,
)
from shotfuse.audio import PCM_SCALE, WINDOW_SAMPLES
from shotfuse.imu import ACCEL_RANGE_G, GYRO_RANGE_DPS
from shotfuse.series import FIR_CHUNK_FRAMES
from shotfuse.training import center_forms
from shotfuse.dataio import (
    WavFile,
    load_filter_model,
    load_forest_model,
    read_events_csv,
    read_imu_csv,
    read_labels_csv,
    read_wav,
    save_filter_model,
    save_forest_model,
    write_events_csv,
    write_imu_csv,
    write_labels_csv,
    write_json,
    write_series_csv,
    write_wav,
)
from test_forest import same_forest


# --- WAV ---------------------------------------------------------------------


def test_wav_zeros_round(tmp_path):
    path = tmp_path / "z.wav"
    write_wav(path, PcmAudio(np.zeros(8000, dtype=np.int16)))
    out = read_wav(path)
    assert len(out) == 8000
    assert np.array_equal(out.samples, np.zeros(8000))


def test_wav_fullscale_sample(tmp_path):
    path = tmp_path / "one.wav"
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(8000)
        w.writeframes(np.array([32767], dtype="<i2").tobytes())
    out = read_wav(path)
    assert out.samples[0] * PCM_SCALE == pytest.approx(32767 / 32768)


def test_wav_round_trip_bit_identical(tmp_path, rng):
    ints = rng.integers(-32768, 32768, size=1000).astype("<i2")
    path = tmp_path / "rt.wav"
    write_wav(path, PcmAudio(ints))
    with wave.open(str(path), "rb") as w:
        back = np.frombuffer(w.readframes(w.getnframes()), dtype="<i2")
    assert np.array_equal(back, ints)


def test_wav_decode_matches_float_conversion_then_scale(tmp_path, rng):
    ints = np.r_[-32768, 0, 32767, rng.integers(-32768, 32768, size=997)].astype("<i2")
    path = tmp_path / "extremes.wav"
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(8000)
        w.writeframes(ints.tobytes())
    pcm = read_wav(path).samples
    assert pcm.dtype == np.int16 and np.array_equal(pcm, ints)
    # Decoding is one exact multiply: the same floats as converting, then dividing by 32768.
    out = pcm * PCM_SCALE
    expected = ints.astype(float) / 32768.0
    assert out.dtype == np.float64
    assert out.tobytes() == expected.tobytes()
    assert out[:3].tolist() == [-1.0, 0.0, 32767 / 32768]


def test_empty_wav_reads_as_no_samples(tmp_path):
    path = tmp_path / "empty.wav"
    write_wav(path, PcmAudio(np.empty(0, dtype=np.int16)))
    assert len(read_wav(path)) == len(WavFile(path)) == 0
    assert reads(WavFile(path), 80) == []


def test_wav_values_are_read_only(tmp_path):
    path = tmp_path / "z.wav"
    write_wav(path, PcmAudio(np.zeros(800, dtype=np.int16)))
    with pytest.raises(ValueError):
        read_wav(path).samples[0] = 1


def test_wav_read_holds_only_the_pcm(tmp_path, rng):
    n = 60 * 8000
    path = tmp_path / "minute.wav"
    write_wav(path, PcmAudio.from_float(0.1 * rng.standard_normal(n)))
    tracemalloc.start()
    try:
        audio = read_wav(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(audio) == n
    # The samples are a view of the bytes read (2 a sample); any decoded
    # float copy (8 a sample) would bring the peak to 5x.
    assert peak < 1.3 * (2 * n)


def test_wav_write_of_a_read_is_byte_identical(tmp_path, rng):
    ints = np.r_[-32768, 32767, rng.integers(-32768, 32768, size=4001)].astype("<i2")
    first, second = tmp_path / "a.wav", tmp_path / "b.wav"
    with wave.open(str(first), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(8000)
        w.writeframes(ints.tobytes())
    write_wav(second, read_wav(first))
    assert second.read_bytes() == first.read_bytes()


def test_synthesized_audio_is_what_the_wav_holds(tmp_path):
    audio, _, _ = synthesize(SynthConfig(duration_s=10.0, shot_count=5, seed=12))
    path = tmp_path / "synth.wav"
    write_wav(path, audio)
    back = read_wav(path)
    assert back.samples.dtype == audio.samples.dtype == np.int16
    assert np.array_equal(back.samples, audio.samples)


def test_wav_rejects_wrong_properties(tmp_path):
    stereo = tmp_path / "stereo.wav"
    with wave.open(str(stereo), "wb") as w:
        w.setnchannels(2)
        w.setsampwidth(2)
        w.setframerate(8000)
        w.writeframes(np.zeros(100, dtype="<i2").tobytes())
    with pytest.raises(ValueError, match="mono"):
        read_wav(stereo)

    wrong_rate = tmp_path / "rate.wav"
    with wave.open(str(wrong_rate), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(44100)
        w.writeframes(np.zeros(100, dtype="<i2").tobytes())
    with pytest.raises(ValueError, match="8000 Hz"):
        read_wav(wrong_rate)

    eight_bit = tmp_path / "bits.wav"
    with wave.open(str(eight_bit), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(1)
        w.setframerate(8000)
        w.writeframes(np.zeros(100, dtype="u1").tobytes())
    with pytest.raises(ValueError, match="16-bit"):
        read_wav(eight_bit)


CHUNK = FIR_CHUNK_FRAMES * 80  # samples per FIR chunk


def reads(source, size):
    """Copies of every read of the source into one int16 buffer of size samples."""
    buffer = np.empty(size, dtype=np.int16)
    return [buffer[:count].copy() for count in source.read_into(buffer)]


@pytest.mark.parametrize(
    "n",
    [79, 5000, 3 * CHUNK, 3 * CHUNK + 37, CHUNK + 5 * 80 + 79],
    ids=["under-a-microframe", "under-a-chunk", "three-chunks", "three-chunks-and-37", "ends-inside-a-microframe"],
)
def test_streamed_likelihood_is_bit_equal_to_the_in_memory_one(tmp_path, rng, n):
    path = tmp_path / "a.wav"
    write_wav(path, PcmAudio.from_float(0.2 * rng.standard_normal(n)))
    model = FilterModel(rng.standard_normal(23))
    streamed = WavFile(path)
    assert len(streamed) == n
    if n < 80:
        for audio in (streamed, read_wav(path)):
            with pytest.raises(ValueError, match="insufficient samples"):
                audio_likelihood(audio, model)
        return
    a, b = audio_likelihood(streamed, model), audio_likelihood(read_wav(path), model)
    assert a.start_time == b.start_time
    assert a.values.tobytes() == b.values.tobytes()
    blocks = reads(streamed, CHUNK)
    assert [x.size for x in blocks[:-1]] == [CHUNK] * (len(blocks) - 1)
    assert np.array_equal(np.concatenate(blocks), read_wav(path).samples)
    assert all(np.array_equal(x, y) for x, y in zip(reads(read_wav(path), CHUNK), blocks, strict=True))


@pytest.mark.parametrize("cut", [0, 1], ids=["whole-frames", "half-a-frame"])
@pytest.mark.parametrize("kept", [5000, 3 * CHUNK + 20])
def test_truncated_wav_fails_naming_the_declared_and_the_present_frames(tmp_path, rng, cut, kept):
    # kept = 3 chunks + 20 cuts inside a tail that holds no whole microframe (3 chunks + 37).
    n = 3 * CHUNK + 37
    whole, path = tmp_path / "whole.wav", tmp_path / "cut.wav"
    write_wav(whole, PcmAudio.from_float(0.2 * rng.standard_normal(n)))
    path.write_bytes(whole.read_bytes()[: 44 + 2 * kept + cut])  # a 44-byte header, then 2 bytes a frame
    message = f"^truncated WAV: the header declares {n} frames, the file holds {kept}$"
    with pytest.raises(ValueError, match=message):
        read_wav(path)
    streamed = WavFile(path)  # the header alone is whole
    assert len(streamed) == n
    with pytest.raises(ValueError, match=message):
        audio_likelihood(streamed, FilterModel(rng.standard_normal(23)))
    with pytest.raises(ValueError, match=message):
        reads(streamed, CHUNK)


def with_chunks_around_the_data(plain: bytes) -> bytes:
    """A 44-byte-header WAV with an odd-sized LIST chunk and its pad byte before data, and a chunk after it."""
    fmt, data = plain[12:36], plain[36:]
    listed = b"LIST" + struct.pack("<I", 9) + b"INFOISFT\x07\x00"
    body = b"WAVE" + fmt + listed + data + b"junk" + struct.pack("<I", 4) + b"tail"
    return b"RIFF" + struct.pack("<I", len(body)) + body


def test_chunks_around_the_data_do_not_move_the_samples(tmp_path, rng):
    # The reads start where the header parse leaves the file, past the LIST chunk, and stop at the data's end.
    n = 3 * CHUNK + 37
    plain, padded = tmp_path / "plain.wav", tmp_path / "padded.wav"
    write_wav(plain, PcmAudio.from_float(0.2 * rng.standard_normal(n)))
    padded.write_bytes(with_chunks_around_the_data(plain.read_bytes()))
    assert len(WavFile(padded)) == n
    assert read_wav(padded).samples.tobytes() == read_wav(plain).samples.tobytes()
    model = FilterModel(rng.standard_normal(23))
    a, b = audio_likelihood(WavFile(padded), model), audio_likelihood(WavFile(plain), model)
    assert a.start_time == b.start_time
    assert a.values.tobytes() == b.values.tobytes()
    starts = np.sort(np.r_[rng.integers(0, n - WINDOW_SAMPLES + 1, 50), 0, n - WINDOW_SAMPLES])
    assert center_forms(WavFile(padded), starts).tobytes() == center_forms(WavFile(plain), starts).tobytes()


def test_streamed_wav_checks_the_header_as_read_wav_does(tmp_path):
    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as w:
        w.setnchannels(2)
        w.setsampwidth(2)
        w.setframerate(8000)
        w.writeframes(np.zeros(100, dtype="<i2").tobytes())
    with pytest.raises(ValueError, match="^expected mono audio, got 2 channels$"):
        WavFile(path)


# --- IMU CSV -------------------------------------------------------------------


def test_imu_csv_empty_data(tmp_path):
    path = tmp_path / "imu.csv"
    path.write_text("t_ms,ax,ay,az,gx,gy,gz\n")
    with pytest.raises(ValueError, match="^empty stream$"):
        read_imu_csv(path)


def components_of(comps):
    """The start and the four value arrays of ImuComponents."""
    return comps.a_rad.start_time, *(s.values for s in (comps.a_rad, comps.a_tan, comps.w_rad, comps.w_tan))


def assert_same_components(got, expected, name=""):
    for a, b in zip(components_of(got), components_of(expected)):
        assert np.array_equal(a, b), name


def as_written(stream):
    """The stream the IMU CSV of stream reads as: t to 3 decimals, the sensors to 6."""
    block = stream.block
    return ImuStream([[float(f"{v:.3f}") for v in block[0]],
                      *([float(f"{v:.6f}") for v in row] for row in block[1:])])


def test_imu_csv_round_trip(tmp_path):
    _, imu, _ = synthesize(SynthConfig(duration_s=10.0, shot_count=5, seed=31))
    path = tmp_path / "imu.csv"
    write_imu_csv(path, imu)
    back = read_imu_csv(path)
    assert len(back) == len(imu) == 1000
    # t sits on the 10 ms grid, so its 3 decimals are exact; the sensor
    # columns come back as exactly the 6-decimal values written
    assert np.array_equal(as_written(imu).block[0], imu.block[0])
    assert_same_components(back, shotfuse.imu.decompose(as_written(imu)))
    again = tmp_path / "again.csv"
    write_imu_csv(again, as_written(imu))
    assert again.read_bytes() == path.read_bytes()


def shuffled_imu_file(path, stream, rng):
    """write_imu_csv's rows with the columns in a random order and a last column of text."""
    write_imu_csv(path, stream)
    rows = [line.split(",") for line in path.read_text().splitlines()]
    order = rng.permutation(len(rows[0]))
    path.write_text("".join(",".join([row[i] for i in order] + [f"note{k}"]) + "\n" for k, row in enumerate(rows)))


@pytest.mark.parametrize("parse_rows", [7, 4096])
def test_imu_csv_reads_as_decompose_of_the_stream_written(tmp_path, rng, monkeypatch, parse_rows):
    monkeypatch.setattr(shotfuse.dataio, "_PARSE_ROWS", parse_rows)
    n = 300
    on_grid = 1234.5 + 10.0 * np.arange(n)
    timings = {
        "on grid": on_grid,
        "jittered on its own slots": on_grid + rng.uniform(-2.4, 2.4, n),
        "off grid": 1234.5 + np.cumsum(rng.uniform(5.0, 20.0, n)),  # the reader picks grid samples
    }
    for name, t in timings.items():
        stream = as_written(ImuStream([t, *rng.uniform(-8.0, 8.0, (3, n)), *rng.uniform(-2000.0, 2000.0, (3, n))]))
        path = tmp_path / "imu.csv"
        shuffled_imu_file(path, stream, rng)
        expected = shotfuse.imu.decompose(stream)
        assert (len(expected) == n) == (name != "off grid"), name
        assert_same_components(read_imu_csv(path), expected, name)


def test_imu_csv_range_error_waits_for_the_parse_of_later_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(shotfuse.dataio, "_PARSE_ROWS", 16)
    path = tmp_path / "imu.csv"
    rows = [f"{10 * k},0,0,0,0,0,0\n" for k in range(100)]
    rows[1] = "10,9.5,0,0,0,0,0\n"  # CSV row 3
    path.write_text("t_ms,ax,ay,az,gx,gy,gz\n" + "".join(rows))
    with pytest.raises(ValueError, match="^row 3: acceleration exceeds"):
        read_imu_csv(path)
    rows[60] = "600,0,0,0,x,0,0\n"  # CSV row 62, in the fourth parse chunk
    path.write_text("t_ms,ax,ay,az,gx,gy,gz\n" + "".join(rows))
    with pytest.raises(ValueError, match="^row 62: non-numeric value 'x' in column gx$") as caught:
        read_imu_csv(path)
    # The scan names the row that np.loadtxt rejected.
    assert isinstance(caught.value.__context__, ValueError)


def test_imu_csv_timestamp_errors_name_the_row(tmp_path):
    header = "t_ms,ax,ay,az,gx,gy,gz\n"
    path = tmp_path / "imu.csv"
    path.write_text(header + "0,0,0,0,0,0,0\n\n10,0,0,0,0,0,0\n5,0,0,0,0,0,0\n")
    with pytest.raises(ValueError, match="^row 5: unordered stream$"):
        read_imu_csv(path)
    # An order break anywhere outranks an earlier gap.
    path.write_text(header + "0,0,0,0,0,0,0\n35,0,0,0,0,0,0\n\n45,0,0,0,0,0,0\n45,0,0,0,0,0,0\n")
    with pytest.raises(ValueError, match="^row 6: unordered stream$"):
        read_imu_csv(path)
    path.write_text(header + "0,0,0,0,0,0,0\n\n10,0,0,0,0,0,0\n35,0,0,0,0,0,0\n40,0,0,0,0,0,0\n")
    with pytest.raises(ValueError, match="^row 5: stream gap$"):
        read_imu_csv(path)


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_csv_readers_drop_a_utf8_byte_order_mark(tmp_path, ending):
    _, imu, labels = synthesize(SynthConfig(duration_s=10.0, shot_count=5, seed=33))
    events = np.array([[105.0, 0.9], [210.5, 0.25]])
    files = {"imu": (write_imu_csv, imu, read_imu_csv, components_of),
             "labels": (write_labels_csv, labels, read_labels_csv, lambda x: (x.shots,)),
             "events": (write_events_csv, events, read_events_csv, lambda x: (x,))}
    for name, (write, value, read, parts) in files.items():
        plain, marked = tmp_path / f"{name}.csv", tmp_path / f"{name}.bom.csv"
        write(plain, value)
        text = plain.read_bytes().replace(b"\r\n", b"\n").replace(b"\n", ending.encode())
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        for a, b in zip(parts(read(marked)), parts(read(plain))):
            assert np.array_equal(a, b), name
    # A marked file still names its rows.
    marked = tmp_path / "labels.bom.csv"
    marked.write_bytes(b"\xef\xbb\xbft_ms\n100\n\nlate\n")
    with pytest.raises(ValueError, match="^row 4: non-numeric value 'late' in column t_ms$"):
        read_labels_csv(marked)


# A byte that is not UTF-8: in a parsed cell the error names its row, elsewhere it is ignored text.

@pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"])
def test_imu_csv_names_the_row_of_a_byte_that_is_not_utf8(tmp_path, ending):
    path = tmp_path / "imu.csv"
    rows = [b"t_ms,ax,ay,az,gx,gy,gz,note", b"0,0.5,0,0,0,0,0,x", b"10,0.25,0,0,0,0,0,y"]
    path.write_bytes(ending.join(rows) + ending)
    expected = read_imu_csv(path)
    rows[2] = b"10,0.\xff,0,0,0,0,0,y"
    path.write_bytes(ending.join(rows) + ending)
    with pytest.raises(ValueError, match="^row 3: non-numeric value '0.\ufffd' in column ax$"):
        read_imu_csv(path)
    rows[2] = b"10,0.25,0,0,0,0,0,caf\xe9"  # latin-1, in a column the reader ignores
    path.write_bytes(ending.join(rows) + ending)
    assert_same_components(read_imu_csv(path), expected)


@pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"])
def test_labels_csv_names_the_row_of_a_byte_that_is_not_utf8(tmp_path, ending):
    path = tmp_path / "labels.csv"
    path.write_bytes(ending.join([b"t_ms,who", b"100,ann", b"2\xff0,bob"]) + ending)
    with pytest.raises(ValueError, match="^row 3: non-numeric value '2\ufffd0' in column t_ms$"):
        read_labels_csv(path)
    path.write_bytes(ending.join([b"t_ms,caf\xe9", b"100,\xe9", b"250.5,bob\xff"]) + ending)
    assert np.array_equal(read_labels_csv(path).shots, [100.0, 250.5])
    # A non-ASCII space around a number is no more a number than a bad byte.
    path.write_bytes(ending.join([b"t_ms", b"100", "250\u00a0".encode()]) + ending)
    with pytest.raises(ValueError, match=r"^row 3: non-numeric value '250\\xa0' in column t_ms$"):
        read_labels_csv(path)


@pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"])
def test_events_csv_names_the_row_of_a_byte_that_is_not_utf8(tmp_path, ending):
    path = tmp_path / "events.csv"
    path.write_bytes(ending.join([b"time_ms,score", b"105.0,0.9", b"", b"210.0,\x800.5"]) + ending)
    with pytest.raises(ValueError, match="^row 4: non-numeric value '\ufffd0.5' in column score$"):
        read_events_csv(path)
    path.write_bytes(ending.join([b"time_ms,score,why", b"105.0,0.9,\xe9t\xe9", b"210.0,0.5"]) + ending)
    assert np.array_equal(read_events_csv(path), [[105.0, 0.9], [210.0, 0.5]])


def csv_writer_imu_file(path, stream):
    """The csv.writer formulation of write_imu_csv, kept as its byte oracle."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("t_ms", "ax", "ay", "az", "gx", "gy", "gz"))
        for t, *sensors in stream.block.T.tolist():
            writer.writerow([f"{t:.3f}"] + [f"{v:.6f}" for v in sensors])


def test_imu_csv_bytes_match_csv_writer(tmp_path, rng):
    _, imu, _ = synthesize(SynthConfig(duration_s=10.0, shot_count=5, seed=32))
    edges = ImuStream(
        [
            [0.0, -0.0, 10.0, 20.0, 1e6 + 0.0005],
            [-0.0, 8.0, -8.0, 1e-7, -1e-7],
            [8.0, -0.0, -8.0, 7.9999995, -7.9999995],
            [0.0, -8.0, 8.0, 0.5, -0.5],
            [-0.0, 2000.0, -2000.0, 1999.9999995, -1999.9999995],
            [2000.0, -0.0, -2000.0, 0.0, 1e-9],
            [-2000.0, 2000.0, -0.0, -1e-9, 123.4567895],
        ]
    )
    for name, stream in (("synth", imu), ("edges", edges), ("empty", ImuStream(np.empty((7, 0))))):
        ours, oracle = tmp_path / f"{name}.csv", tmp_path / f"{name}.oracle.csv"
        write_imu_csv(ours, stream)
        csv_writer_imu_file(oracle, stream)
        assert ours.read_bytes() == oracle.read_bytes(), name
    assert (tmp_path / "edges.csv").read_bytes().splitlines()[2] == (
        b"-0.000,8.000000,-0.000000,-8.000000,2000.000000,-0.000000,2000.000000"
    )


def percent_rows(header, row_format, table, end="\n"):
    """The CSV text of % formatting, one row at a time: the byte oracle of the column formatter."""
    return (header + end + "".join([(row_format + end) % tuple(row) for row in table.tolist()])).encode()


def decimal_edge_values(rng, decimals, count=600):
    """Values of both signs whose "%.{decimals}f" text a column-at-a-time formatter can get wrong."""
    halves = (rng.integers(0, 10**7, count) + 0.5) / 10.0**decimals
    epoch = 1.7e12 + rng.integers(0, 10**9, count) * 0.0005  # epoch-scale t_ms, ties among them
    values = np.concatenate([
        10.0 ** rng.uniform(-9, 12, 5 * count),  # magnitudes from 1e-9 to 1e12
        rng.integers(1, 2**12, count) / 2.0 ** rng.integers(1, 16, count),  # exact binary fractions, ties among them
        halves, np.nextafter(halves, np.inf), np.nextafter(halves, -np.inf),
        epoch, np.nextafter(epoch, np.inf), 1.7e12 + rng.uniform(0.0, 1e9, count),
        [0.0, 0.0078125, 5e-4, 5e-7, 4e-7, 1e-300, 5e-324, ACCEL_RANGE_G, GYRO_RANGE_DPS,
         np.nextafter(ACCEL_RANGE_G, 0.0), np.nextafter(GYRO_RANGE_DPS, 0.0), 2.0**52 / 10**decimals, 2.0**53, 1e22],
    ])
    return np.concatenate([values, -values])  # -0.0 and tiny negatives among them


@pytest.mark.parametrize("format_rows", [97, 4096])
def test_fixed_decimal_csv_text_is_percent_rows_byte_for_byte(tmp_path, rng, monkeypatch, format_rows):
    monkeypatch.setattr(shotfuse.dataio, "_FORMAT_ROWS", format_rows)
    path = tmp_path / "out.csv"
    ms, sensor = decimal_edge_values(rng, 3), decimal_edge_values(rng, 6)
    events = np.column_stack((rng.permutation(ms), rng.permutation(sensor)[: ms.size]))
    assert len(events) >= shotfuse.dataio._FIXED_MIN_ROWS
    write_events_csv(path, events)
    assert path.read_bytes() == percent_rows("time_ms,score", "%.3f,%.6f", events)
    shots = np.unique(np.abs(ms))
    write_labels_csv(path, LabelSet(shots))
    assert path.read_bytes() == percent_rows("t_ms", "%.3f", shots[:, None])
    # The IMU columns within the sensor ranges.
    accel = sensor[np.abs(sensor) <= ACCEL_RANGE_G]
    gyro = sensor[np.abs(sensor) <= GYRO_RANGE_DPS]
    n = accel.size
    block = np.stack([rng.permutation(ms)[:n], *(rng.permutation(accel) for _ in range(3)),
                      *(rng.permutation(gyro)[:n] for _ in range(3))])
    write_imu_csv(path, ImuStream(block))
    assert path.read_bytes() == percent_rows(",".join(shotfuse.imu.IMU_FIELDS), "%.3f" + ",%.6f" * 6, block.T, "\r\n")


def test_imu_csv_validates_the_samples_once(tmp_path, monkeypatch):
    calls = []
    check = shotfuse.imu.first_invalid_sample

    def counted(columns):
        calls.append(columns.shape)
        return check(columns)

    monkeypatch.setattr(shotfuse.imu, "first_invalid_sample", counted)
    monkeypatch.setattr(shotfuse.dataio, "first_invalid_sample", counted)
    _, imu, _ = synthesize(SynthConfig(duration_s=5.0, shot_count=2, seed=32))
    path = tmp_path / "imu.csv"
    write_imu_csv(path, imu)
    calls.clear()
    assert len(read_imu_csv(path)) == 500
    assert calls == [(7, 500)]


def test_imu_csv_read_holds_one_copy_of_the_samples(tmp_path, rng):
    n = 60_000  # a 10-min session
    stream = ImuStream([10.0 * np.arange(n), *rng.uniform(-2.0, 2.0, (3, n)), *rng.uniform(-500.0, 500.0, (3, n))])
    path = tmp_path / "imu.csv"
    write_imu_csv(path, stream)
    tracemalloc.start()
    try:
        back = read_imu_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(back) == n
    # The timestamps and the four components (2.4 MB), plus a 1.5 MB margin
    # for one parse chunk's buffers. Measured 3.15 MB: 0.75 MB of chunk
    # buffers at 4096 rows (1.47 MB at 8192). Parsing into one (7, n) block,
    # which decompose then split, took 4.02 MB, and the block (3.36 MB) lived
    # on next to the components.
    assert peak < 5 * 8 * n + 1.5e6, f"{peak / 1e6:.2f} MB"


def test_imu_csv_line_endings_and_blank_lines_parse_alike(tmp_path, rng, monkeypatch):
    monkeypatch.setattr(shotfuse.dataio, "_PARSE_ROWS", 1024)
    n = 2500  # spans several parse chunks
    stream = ImuStream([10.0 * np.arange(n), *rng.uniform(-2.0, 2.0, (6, n))])
    path = tmp_path / "imu.csv"
    write_imu_csv(path, stream)
    expected = read_imu_csv(path)
    lines = path.read_text().splitlines()
    mixed = "".join(line + ("\r" if k % 3 else "\n") for k, line in enumerate(lines))
    bom = "\ufeff"
    # Each variant's text, the lines the parser ends in it and whether one ends at a lone \r.
    variants = {
        "lf": ("\n".join(lines) + "\n", n + 1, False),
        "no final newline": ("\n".join(lines), n + 1, False),
        "crlf": ("\r\n".join(lines) + "\r\n", n + 1, False),
        "bom and crlf": (bom + "\r\n".join(lines) + "\r\n", n + 1, False),
        "lone cr": ("\r".join(lines) + "\r", n + 1, True),
        "bom and lone cr": (bom + "\r".join(lines) + "\r", n + 1, True),
        "lone cr, no final one": ("\r".join(lines), n + 1, True),
        "mixed lf and lone cr": (mixed, n + 1, True),
        "blank lines": ("\n\n".join(lines) + "\n\n", 2 * (n + 1), False),
    }
    for name, (text, line_count, lone_cr) in variants.items():
        path.write_bytes(text.encode())
        assert shotfuse.dataio._line_ends(path) == (line_count, lone_cr), name
        comps = read_imu_csv(path)
        assert_same_components(comps, expected, name)
        assert all(s.values.flags.c_contiguous for s in (comps.a_rad, comps.a_tan, comps.w_rad, comps.w_tan)), name


@pytest.mark.parametrize("chunk", [1, 2, 3, 4, 5, 1 << 16])
def test_line_ends_are_counted_across_read_chunks(tmp_path, monkeypatch, chunk):
    # A \r\n split between two reads is one line end; a \r that ends the file is one too.
    monkeypatch.setattr(shotfuse.dataio, "_COUNT_BYTES", chunk)
    path = tmp_path / "lines.csv"
    for text, expected in [(b"", (0, False)), (b"a", (1, False)), (b"a\r\nb\r\nc", (3, False)),
                           (b"ab\r\ncd\r\n", (2, False)), (b"abc\r\r\n\n\r", (4, True)),
                           (b"a\rb\nc\r\n\r", (4, True)), (b"\r\n\r\n\r\n", (3, False))]:
        path.write_bytes(text)
        assert shotfuse.dataio._line_ends(path) == expected, text


def test_imu_csv_reports_a_bad_row_past_the_first_parse_chunk(tmp_path):
    n = 5000
    stream = ImuStream([10.0 * np.arange(n), *np.zeros((6, n))])
    path = tmp_path / "imu.csv"
    write_imu_csv(path, stream)
    lines = path.read_text().splitlines(keepends=True)
    lines[4097] = "40960.000,0,0,0,0,2500,0\n"  # data row 4096, in the second parse chunk
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match="row 4098: angular velocity exceeds"):
        read_imu_csv(path)


def test_imu_csv_range_violation_reports_row(tmp_path):
    header = "t_ms,ax,ay,az,gx,gy,gz\n"
    path = tmp_path / "imu.csv"
    path.write_text(header + "0,0,0,0,0,0,0\n10,9.5,0,0,0,0,0\n")
    with pytest.raises(ValueError, match="row 3: acceleration exceeds"):
        read_imu_csv(path)
    # blank lines are skipped but still counted as CSV rows
    path.write_text(header + "0,0,0,0,0,0,0\n\n10,0,0,nan,0,0,0\n")
    with pytest.raises(ValueError, match="row 4: values must be finite"):
        read_imu_csv(path)
    path.write_text(header + "\n0,0,0,0,0,0,0\n\n10,0,0,0,0,2500,0\n20,9.5,0,0,0,0,0\n")
    with pytest.raises(ValueError, match="row 5: angular velocity exceeds"):
        read_imu_csv(path)


def test_imu_csv_non_numeric_reports_row(tmp_path):
    path = tmp_path / "imu.csv"
    path.write_text("t_ms,ax,ay,az,gx,gy,gz\n0,oops,0,0,0,0,0\n")
    with pytest.raises(ValueError, match="row 2.*ax"):
        read_imu_csv(path)


def test_imu_csv_blank_lines_before_bad_row(tmp_path):
    header = "t_ms,ax,ay,az,gx,gy,gz\n"
    path = tmp_path / "imu.csv"
    path.write_text(header + "\n0,0,0,0,0,0,0\n\n\n10,0,0,0,oops,0,0\n")
    with pytest.raises(ValueError, match="row 6: non-numeric value 'oops' in column gx"):
        read_imu_csv(path)
    path.write_text(header + "0,0,0,0,0,0,0\n\n\n10,0,0,0,0,0,0\n\n20,0,0,9.5,0,0,0\n")
    with pytest.raises(ValueError, match="row 7: acceleration exceeds"):
        read_imu_csv(path)


def test_imu_csv_short_row(tmp_path):
    path = tmp_path / "imu.csv"
    path.write_text("t_ms,ax,ay,az,gx,gy,gz\n0,0,0,0,0,0,0\n\n10,0,0,0,0,0\n")
    with pytest.raises(ValueError, match="row 4: expected 7 fields, got 6"):
        read_imu_csv(path)


def test_imu_csv_extra_trailing_fields_and_column_order(tmp_path):
    path = tmp_path / "imu.csv"
    path.write_text("gz,t_ms,ax,ay,az,gx,gy,note\n-3,0,0.5,0,0,0,0,x\n4,10,0,0,0,0,0,y,extra\n")
    imu = read_imu_csv(path)
    assert imu.a_rad.start_time == 0.0
    assert np.array_equal(imu.a_rad.values, [0.5, 0.0])
    assert np.array_equal(imu.w_tan.values, [3.0, 4.0])


def test_imu_csv_hash_cell_is_not_a_comment(tmp_path):
    path = tmp_path / "imu.csv"
    path.write_text("t_ms,ax,ay,az,gx,gy,gz\n0,0,0,0,0,0,0\n#,0,0,0,0,0,0\n")
    with pytest.raises(ValueError, match="row 3: non-numeric value '#' in column t_ms"):
        read_imu_csv(path)


def test_imu_csv_missing_column(tmp_path):
    path = tmp_path / "imu.csv"
    path.write_text("t_ms,ax,ay,az,gx,gy\n")
    with pytest.raises(ValueError, match="missing column gz"):
        read_imu_csv(path)


# --- labels / events CSV ----------------------------------------------------------


def test_labels_round_trip(tmp_path):
    labels = LabelSet(np.array([100.0, 2500.5, 60000.0]))
    path = tmp_path / "labels.csv"
    write_labels_csv(path, labels)
    back = read_labels_csv(path)
    assert np.allclose(back.shots, labels.shots)


def test_labels_csv_bytes(tmp_path):
    path = tmp_path / "labels.csv"
    write_labels_csv(path, LabelSet(np.array([0.0, 100.0, 2500.5, 60000.0004])))
    assert path.read_bytes() == b"t_ms\n0.000\n100.000\n2500.500\n60000.000\n"


def test_series_csv_bytes(tmp_path):
    path = tmp_path / "apf.csv"
    write_series_csv(path, SampleSeries(-270.0, [0.0, 1.0 / 3.0, 2.5e-7, 123456789.0, -4.5]))
    assert path.read_bytes() == (
        b"time_ms,value\n-270.000,0\n-260.000,0.333333333\n-250.000,2.5e-07\n-240.000,123456789\n-230.000,-4.5\n"
    )


def test_labels_reject_non_finite_timestamps(tmp_path):
    # NaN and infinity used to load, and evaluate counted a NaN label as a missed shot; a NaN
    # among other labels failed as "not strictly ascending".
    path = tmp_path / "labels.csv"
    for text in ("t_ms\nnan\n", "t_ms\n100\ninf\n", "t_ms\n100\nnan\n300\n", "t_ms\n-inf\n100\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match="^shot timestamps must be finite$"):
            read_labels_csv(path)


def test_labels_missing_header(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("time\n100\n")
    with pytest.raises(ValueError, match="t_ms"):
        read_labels_csv(path)


def test_labels_and_events_report_row_and_column(tmp_path):
    labels = tmp_path / "labels.csv"
    labels.write_text("t_ms\n100\n\nlate\n")
    with pytest.raises(ValueError, match="row 4: non-numeric value 'late' in column t_ms"):
        read_labels_csv(labels)
    events = tmp_path / "events.csv"
    events.write_text("time_ms,score\n105.0,0.9\n\n\n210.0,#\n")
    with pytest.raises(ValueError, match="row 5: non-numeric value '#' in column score"):
        read_events_csv(events)
    events.write_text("time_ms,score\n105.0,0.9\n210.0\n")
    with pytest.raises(ValueError, match="row 3: expected 2 fields, got 1"):
        read_events_csv(events)


def test_labels_and_events_skip_blank_lines_and_extra_fields(tmp_path):
    labels = tmp_path / "labels.csv"
    labels.write_text("t_ms,who\n100,a\n\n250.5,b\n")
    assert np.array_equal(read_labels_csv(labels).shots, [100.0, 250.5])
    events = tmp_path / "events.csv"
    events.write_text("time_ms,score,why\n\n105.0,0.9,x\n210.0,0.5\n")
    assert np.array_equal(read_events_csv(events), [[105.0, 0.9], [210.0, 0.5]])


def test_header_only_files_are_empty(tmp_path):
    imu = tmp_path / "imu.csv"
    imu.write_text("t_ms,ax,ay,az,gx,gy,gz\n\n")
    with pytest.raises(ValueError, match="^empty stream$"):  # an IMU stream needs a sample
        read_imu_csv(imu)
    labels = tmp_path / "labels.csv"
    labels.write_text("t_ms\n")
    assert len(read_labels_csv(labels)) == 0
    events = tmp_path / "events.csv"
    events.write_text("time_ms,score\n")
    assert read_events_csv(events).shape == (0, 2)


def test_events_round_trip(tmp_path):
    events = np.array([[105.0, 0.92], [2310.0, 0.54]])
    path = tmp_path / "events.csv"
    write_events_csv(path, events)
    assert path.read_text() == "time_ms,score\n105.000,0.920000\n2310.000,0.540000\n"
    assert np.array_equal(read_events_csv(path), events)


# --- model JSON --------------------------------------------------------------------


def test_filter_model_json_schema(tmp_path, rng):
    model = FilterModel(rng.standard_normal(23), bias=-0.25)
    path = tmp_path / "filter.json"
    save_filter_model(path, model)
    payload = json.loads(path.read_text())
    assert sorted(payload) == ["bias", "microframe_ms", "sample_rate", "weights"]
    assert payload["sample_rate"] == 8000
    assert payload["microframe_ms"] == 10
    assert len(payload["weights"]) == 23
    back = load_filter_model(path)
    assert np.allclose(back.weights, model.weights)
    assert back.bias == model.bias


def test_filter_model_bytes(tmp_path):
    path = tmp_path / "filter.json"
    save_filter_model(path, FilterModel(np.r_[0.25, -1.5, np.zeros(20), 3.0], bias=-0.125))
    assert path.read_text() == (
        '{\n  "bias": -0.125,\n  "microframe_ms": 10,\n  "sample_rate": 8000,\n  "weights": [\n'
        + "    0.25,\n    -1.5,\n" + "    0.0,\n" * 20 + "    3.0\n  ]\n}\n"
    )


def test_filter_model_geometry_is_written_as_json_integers(tmp_path):
    # 10 == 10.0, so the schema test alone would let a float geometry into the model bytes.
    path = tmp_path / "filter.json"
    save_filter_model(path, FilterModel(np.ones(23), 0.0))
    payload = json.loads(path.read_text())
    assert (type(payload["sample_rate"]), type(payload["microframe_ms"])) == (int, int)


def json_fuzz_values(rng, depth=0):
    """A random JSON value: numbers json can get wrong, lists and objects of them, and the other JSON types."""
    edges = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e22, 1e-7, 0.1, 1.7976931348623157e308, 2**53, 2**53 + 1,
             -(2**63), 2**64 + 7, 10**30, True, False, None, float("nan"), float("inf"), -float("inf"),
             "", "caf\u00e9", "\u2603 \"quoted\"\n", "\U0001f3be"]
    kind = rng.integers(0, 6 if depth < 3 else 3)
    if kind == 0:
        return edges[rng.integers(len(edges))]
    if kind == 1:
        return float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300))
    if kind == 2:
        return int(rng.integers(-(2**62), 2**62)) * int(rng.integers(1, 4))
    if kind == 3:  # a list of plain numbers, maybe with one other value among them
        numbers = [float(v) for v in rng.standard_normal(rng.integers(0, 6))] + list(range(rng.integers(0, 3)))
        if rng.integers(2):
            numbers.insert(rng.integers(len(numbers) + 1), edges[rng.integers(len(edges))])
        return numbers
    if kind == 4:
        return [json_fuzz_values(rng, depth + 1) for _ in range(rng.integers(0, 4))]
    keys = ["a", "b", "caf\u00e9", "trees", "z", "\u2603"]
    return {keys[k]: json_fuzz_values(rng, depth + 1) for k in rng.permutation(len(keys))[: rng.integers(0, 5)]}


def test_write_json_is_json_dumps_byte_for_byte(tmp_path, rng):
    path = tmp_path / "out.json"
    payloads = [
        {"weights": [-0.0, 5e-324, 1e16, 1e22, 2**53 + 1, 2**64, 0.1], "flags": [True, None, 1, 2.5],
         "empty": [], "nothing": {}, "bad": [float("nan"), 1.0, float("inf"), -float("inf")],
         "name": "caf\u00e9 \u2603", "nested": {"x": [[1, 2], [3.5]], "y": [{"z": []}, {}]}},
        [], {}, 1.5, [[]], [1, False], {"v": [np.float64(0.1), 2.0]},
    ]
    payloads += [json_fuzz_values(rng) for _ in range(300)]
    for payload in payloads:
        write_json(path, payload)
        assert path.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n", payload


def rewrite_json(src, dst, edit):
    payload = json.loads(src.read_text())
    edit(payload)
    dst.write_text(json.dumps(payload))
    return dst


@pytest.mark.parametrize("field, value", [("sample_rate", 16000), ("microframe_ms", 7)])
def test_filter_model_rejects_other_geometry(tmp_path, field, value):
    path = tmp_path / "filter.json"
    save_filter_model(path, FilterModel(np.ones(23), 0.0))
    rewrite_json(path, path, lambda p: p.update({field: value}))
    fixed = {"sample_rate": 8000, "microframe_ms": 10}[field]
    with pytest.raises(ValueError, match=f"^filter model: {field} must be {fixed}, got {value}$"):
        load_filter_model(path)


def test_filter_model_rejects_another_tap_count(tmp_path):
    # A 24-weight filter.json used to load and filter with 24 taps.
    path = tmp_path / "filter.json"
    save_filter_model(path, FilterModel(np.ones(23), 0.0))
    rewrite_json(path, path, lambda p: p["weights"].append(1.0))
    with pytest.raises(ValueError, match="^filter model: weights must hold 23 values, got 24$"):
        load_filter_model(path)
    # The model's own checks name the model like every other loader error.
    save_filter_model(path, FilterModel(np.ones(23), 0.0))
    rewrite_json(path, path, lambda p: p["weights"].__setitem__(3, float("nan")))
    with pytest.raises(ValueError, match="^filter model: model parameters must be finite$"):
        load_filter_model(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        # null and [1.0] used to fail as a bare TypeError; true and "1.5" used to load.
        (lambda p: p.update(bias=None), "bias must be a JSON number, got null"),
        (lambda p: p.update(bias=[1.0]), "bias must be a JSON number, got array"),
        (lambda p: p.update(bias=True), "bias must be a JSON number, got boolean"),
        (lambda p: p.update(bias="1.5"), "bias must be a JSON number, got string"),
        # Used to report "weights must hold 23 values, got 23".
        (lambda p: p.update(weights=[p["weights"]]), "weights\\[0\\] must be a JSON number, got array"),
        # 10.0 and 8000.0 used to load, and saving the model again wrote 10 and 8000.
        (lambda p: p.update(microframe_ms=10.0), "microframe_ms must be a JSON integer, got 10.0"),
        (lambda p: p.update(sample_rate=8000.0), "sample_rate must be a JSON integer, got 8000.0"),
        (lambda p: p.update(sample_rate=True), "sample_rate must be a JSON integer, got true"),
    ],
    ids=["bias-null", "bias-array", "bias-true", "bias-string", "weights-nested",
         "microframe-float", "rate-float", "rate-true"],
)
def test_filter_model_rejects_wrongly_typed_fields(tmp_path, edit, message):
    path = tmp_path / "filter.json"
    save_filter_model(path, FilterModel(np.ones(23), 0.0))
    rewrite_json(path, path, edit)
    with pytest.raises(ValueError, match=f"^filter model: {message}$"):
        load_filter_model(path)


@pytest.mark.parametrize(
    "kind, edit, field",
    [
        ("filter", lambda p: p.update(bias=10**400), "bias"),
        ("filter", lambda p: p["weights"].__setitem__(0, 10**400), "weights\\[0\\]"),
        ("forest", lambda p: p["threshold"].__setitem__(0, 10**400), "threshold\\[0\\]"),
        ("filter", lambda p: (p.update(microframe_ms=10**400), p["weights"].__setitem__(0, 10**400)),
         "weights\\[0\\]"),
        ("forest", lambda p: (p.update(seed=10**400), p["threshold"].__setitem__(0, 10**400)), "threshold\\[0\\]"),
    ],
    ids=["filter-bias", "filter-weight", "forest-threshold", "filter-geometry-and-weight", "forest-seed-and-threshold"],
)
def test_model_loaders_name_an_integer_too_large_for_a_float(tmp_path, rng, kind, edit, field):
    # Used to fail as a bare OverflowError, naming neither the model nor the
    # field; then named the first huge integer in the file, also one that is
    # never converted to a float (microframe_ms, seed).
    path = tmp_path / f"{kind}.json"
    if kind == "filter":
        save_filter_model(path, FilterModel(np.ones(23), 0.0))
    else:
        save_forest_model(path, train_forest(rng.standard_normal((20, 5)), np.arange(20) % 2, 2, 1))
    rewrite_json(path, path, edit)
    with pytest.raises(ValueError, match=f"^{kind} model: {field} is too large for a float$"):
        (load_filter_model if kind == "filter" else load_forest_model)(path)


def test_model_loaders_name_a_missing_field(tmp_path, rng):
    filter_path = tmp_path / "filter.json"
    save_filter_model(filter_path, FilterModel(np.ones(23), 0.0))
    for field in ("weights", "bias", "sample_rate", "microframe_ms"):
        broken = rewrite_json(filter_path, tmp_path / "f.json", lambda p: p.pop(field))
        with pytest.raises(ValueError, match=f"^filter model: missing field '{field}'$"):
            load_filter_model(broken)

    forest_path = tmp_path / "forest.json"
    save_forest_model(forest_path, train_forest(rng.standard_normal((20, 5)), np.arange(20) % 2, 2, 1))
    for field in ("feature", "threshold", "left", "right", "leaf_class", "sizes", "seed"):
        broken = rewrite_json(forest_path, tmp_path / "t.json", lambda p: p.pop(field))
        with pytest.raises(ValueError, match=f"^forest model: missing field '{field}'$"):
            load_forest_model(broken)


def test_filter_model_rejects_json_that_is_not_an_object(tmp_path):
    path = tmp_path / "filter.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="^filter model: top level must be a JSON object, got array$"):
        load_filter_model(path)


def test_forest_model_rejects_json_that_is_not_an_object(tmp_path):
    path = tmp_path / "forest.json"
    path.write_text("null")
    with pytest.raises(ValueError, match="^forest model: top level must be a JSON object, got null$"):
        load_forest_model(path)


@pytest.mark.parametrize(
    "sizes, message",
    [
        # One node more than the arrays hold, and one fewer: the table is the one fact about where trees lie.
        (lambda n: [n - 1, 2], "node arrays must have equal length and at least one node"),
        (lambda n: [n - 2, 1], "node arrays must have equal length and at least one node"),
        (lambda n: [n, 0], "node arrays must have equal length and at least one node"),
        # Sizes whose int64 sum wraps round to the node count.
        (lambda n: [(1 << 63) - 1, (1 << 63) - 1, n + 2], "node arrays must have equal length and at least one node"),
        (lambda n: [], "a forest needs at least one tree"),
    ],
    ids=["one-past", "one-short", "empty-tree", "wrapped-sum", "no-tree"],
)
def test_forest_model_rejects_sizes_that_do_not_fit_the_arrays(tmp_path, rng, sizes, message):
    path = tmp_path / "forest.json"
    save_forest_model(path, train_forest(rng.standard_normal((20, 5)), np.arange(20) % 2, 2, 1))
    rewrite_json(path, path, lambda p: p.update(sizes=sizes(sum(p["sizes"]))))
    with pytest.raises(ValueError, match=f"^forest model: {message}$"):
        load_forest_model(path)


def test_forest_model_json_schema(tmp_path, rng):
    model = train_forest(rng.standard_normal((20, 5)), np.arange(20) % 2, tree_count=3, seed=1)
    path = tmp_path / "forest.json"
    save_forest_model(path, model)
    payload = json.loads(path.read_text())
    assert sorted(payload) == ["feature", "leaf_class", "left", "right", "seed", "sizes", "threshold"]
    assert payload["seed"] == 1 and len(payload["sizes"]) == 3
    assert all(len(payload[name]) == sum(payload["sizes"]) for name in ("feature", "threshold", "left", "right", "leaf_class"))
    assert same_forest(load_forest_model(path), model)


#: A stump on feature 2 and a one-leaf tree, as forest.json holds them.
TWO_TREES_JSON = """{
  "feature": [
    2,
    -1,
    -1,
    -1
  ],
  "leaf_class": [
    -1,
    0,
    1,
    1
  ],
  "left": [
    1,
    -1,
    -1,
    -1
  ],
  "right": [
    2,
    -1,
    -1,
    -1
  ],
  "seed": 5,
  "sizes": [
    3,
    1
  ],
  "threshold": [
    1.5,
    0.0,
    0.0,
    0.0
  ]
}
"""


def test_forest_model_bytes(tmp_path):
    model = ForestModel([2, -1, -1, -1], [1.5, 0.0, 0.0, 0.0], [1, -1, -1, -1], [2, -1, -1, -1], [-1, 0, 1, 1],
                        [3, 1], seed=5)
    path = tmp_path / "forest.json"
    save_forest_model(path, model)
    assert path.read_text() == TWO_TREES_JSON
    assert same_forest(load_forest_model(path), model)


@pytest.mark.parametrize(
    "model",
    [
        ForestModel([3, -1, -1], [-0.25, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [-1, 1, 0], [3], seed=0),
        ForestModel([-1] * 4, [0.0] * 4, [-1] * 4, [-1] * 4, [1, 0, 0, 1], [1] * 4, seed=9),
    ],
    ids=["one-tree", "one-node-trees"],
)
def test_forest_model_load_then_save_writes_the_same_bytes(tmp_path, model):
    save_forest_model(tmp_path / "a.json", model)
    loaded = load_forest_model(tmp_path / "a.json")
    assert same_forest(loaded, model)
    save_forest_model(tmp_path / "b.json", loaded)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def set_entry(field, index, value):
    return lambda p: p[field].__setitem__(index, value)


@pytest.mark.parametrize(
    "edit, message",
    [
        (set_entry("feature", 0, 0.7), "feature\\[0\\] must be a JSON integer, got 0\\.7"),
        (set_entry("left", 1, 1.9), "left\\[1\\] must be a JSON integer, got 1\\.9"),
        (set_entry("right", 1, 2.0), "right\\[1\\] must be a JSON integer, got 2\\.0"),
        (set_entry("threshold", 0, None), "threshold\\[0\\] must be a finite JSON number, got null"),
        (set_entry("threshold", 1, float("nan")), "threshold\\[1\\] must be a finite JSON number, got NaN"),
        (set_entry("threshold", 0, float("-inf")), "threshold\\[0\\] must be a finite JSON number, got -Infinity"),
        (set_entry("threshold", 0, "1.0"), "threshold\\[0\\] must be a finite JSON number, got \"1\\.0\""),
        (set_entry("threshold", 0, True), "threshold\\[0\\] must be a finite JSON number, got true"),
        (set_entry("leaf_class", 1, False), "leaf_class\\[1\\] must be a JSON integer, got false"),
        (set_entry("leaf_class", 0, True), "leaf_class\\[0\\] must be a JSON integer, got true"),
        (set_entry("feature", 0, 1 << 63), "feature\\[0\\] is outside the 64-bit integer range"),
        (set_entry("left", 0, -(1 << 63) - 1), "left\\[0\\] is outside the 64-bit integer range"),
        (set_entry("sizes", 1, 1.0), "sizes\\[1\\] must be a JSON integer, got 1\\.0"),
        (set_entry("sizes", 0, True), "sizes\\[0\\] must be a JSON integer, got true"),
        (set_entry("sizes", 0, 1 << 64), "sizes\\[0\\] is outside the 64-bit integer range"),
        (lambda p: p.update(right=2), "right must be a JSON array, got number"),
        (lambda p: p.update(sizes={"0": 3}), "sizes must be a JSON array, got object"),
        (lambda p: p.update(seed="x"), "seed must be a JSON integer, got \"x\""),
        (lambda p: p.update(seed=1.0), "seed must be a JSON integer, got 1\\.0"),
        (lambda p: p.update(seed=-5), "seed must be non-negative, got -5"),
    ],
)
def test_forest_model_rejects_entries_the_node_table_cannot_hold(tmp_path, rng, edit, message):
    # Each of these used to load: floats truncated to indices, null and NaN thresholds that send
    # every row right, a threshold string parsed as a number, booleans as classes, a text or negative seed.
    path = tmp_path / "forest.json"
    save_forest_model(path, train_forest(rng.standard_normal((20, 5)), np.arange(20) % 2, 2, 1))
    broken = rewrite_json(path, tmp_path / "t.json", edit)
    with pytest.raises(ValueError, match=f"^forest model: {message}$"):
        load_forest_model(broken)


def test_forest_model_accepts_integer_thresholds(tmp_path, rng):
    path = tmp_path / "forest.json"
    model = train_forest(rng.standard_normal((20, 5)), np.arange(20) % 2, 2, 1)
    save_forest_model(path, model)
    rewrite_json(path, path, lambda p: p["threshold"].__setitem__(0, 3))
    assert load_forest_model(path).threshold[0] == 3.0
