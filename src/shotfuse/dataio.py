"""File formats: WAV audio, IMU/label/event/series CSVs, model, config and sync JSON; no other module knows a layout.

Every JSON file goes through write_json and every CSV through _write_csv; a CSV's reader and writer share its columns.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
import warnings
import wave
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from .audio import MICROFRAME_MS, SAMPLE_RATE_HZ, FilterModel, PcmAudio
from .events import LabelSet
from .forest import NODE_FIELDS, ForestModel
from .imu import IMU_FIELDS, ImuComponents, ImuStream, first_invalid_sample, grid_components, split_components
from .series import SampleSeries, freeze_in_place
from .synth import SynthConfig

__all__ = [
    "read_wav",
    "WavFile",
    "write_wav",
    "read_imu_csv",
    "write_imu_csv",
    "read_labels_csv",
    "write_labels_csv",
    "read_events_csv",
    "write_events_csv",
    "write_series_csv",
    "write_json",
    "read_synth_config",
    "save_filter_model",
    "load_filter_model",
    "save_forest_model",
    "load_forest_model",
]

LABEL_COLUMNS = ("t_ms",)
EVENT_COLUMNS = ("time_ms", "score")


@contextmanager
def _open_wav(path):
    """The file at its first sample and its frame count, once the header declares 16-bit mono PCM at SAMPLE_RATE_HZ."""
    with open(str(path), "rb") as fh, wave.open(fh) as wav:
        if wav.getcomptype() != "NONE":
            raise ValueError(f"expected uncompressed PCM, got {wav.getcomptype()}")
        if wav.getsampwidth() != 2:
            raise ValueError(f"expected 16-bit samples, got {8 * wav.getsampwidth()}-bit")
        if wav.getnchannels() != 1:
            raise ValueError(f"expected mono audio, got {wav.getnchannels()} channels")
        if wav.getframerate() != SAMPLE_RATE_HZ:
            raise ValueError(f"expected {SAMPLE_RATE_HZ} Hz, got {wav.getframerate()} Hz")
        # The header parse stops on the data chunk's header, so the file is at its first sample.
        yield fh, wav.getnframes()


def _read_into(fh, buffer: np.ndarray, frames: int):
    """Read the file's frames samples in order into the int16 buffer, len(buffer) at a time; yield each read's count.

    Each read fills the buffer from its start, all of it but on the last
    read, straight from the file, in native byte order. A file that ends
    early, even inside a frame, fails with the frame count its header
    declares and the whole frames it holds.
    """
    raw = memoryview(buffer).cast("B")
    for start in range(0, frames, buffer.size or 1):  # an empty buffer reads only an empty recording
        count = min(buffer.size, frames - start)
        got = fh.readinto(raw[: 2 * count])
        if got < 2 * count:
            raise ValueError(f"truncated WAV: the header declares {frames} frames, the file holds {start + got // 2}")
        if sys.byteorder == "big":  # WAV samples are little-endian
            buffer[:count].byteswap(inplace=True)
        yield count


def read_wav(path) -> PcmAudio:
    """Load 16-bit mono PCM audio at SAMPLE_RATE_HZ, read straight into one read-only int16 array."""
    with _open_wav(path) as (fh, frames):
        samples = np.empty(frames, dtype=np.int16)
        for _ in _read_into(fh, samples, frames):
            pass
    return PcmAudio(freeze_in_place(samples))


class WavFile:
    """A WAV recording read from disk one buffer at a time: a PcmAudio that is never held whole.

    It reads like a PcmAudio to short_time_energy, audio_likelihood,
    detect_audio, audio_only_events and training.center_forms (so to
    train_filter, window_metrics and windows_from_labels too), which read
    only these two: len() is the frame count its header declares, and
    read_into(buffer) reads the samples afresh, in order, into the
    caller's int16 buffer, as read_wav would return them; they decode by
    audio.PCM_SCALE. Opening checks the header as read_wav does; a file
    that holds fewer frames than its header declares fails while
    read_into reads it, with read_wav's message.
    """

    def __init__(self, path):
        self.path = path
        with _open_wav(path) as (_, frames):
            self._frames = frames

    def __len__(self) -> int:
        return self._frames

    def read_into(self, buffer: np.ndarray):
        """Read the samples in order into the int16 buffer, len(buffer) at a time; yield each read's count.

        Every read but the last fills the whole buffer. The file stays open
        until the last read or until the generator is closed.
        """
        with _open_wav(self.path) as (fh, _):
            yield from _read_into(fh, buffer, self._frames)


def write_wav(path, audio: PcmAudio) -> None:
    """Write the PCM samples as they are: 16-bit mono at SAMPLE_RATE_HZ."""
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(SAMPLE_RATE_HZ)
        wav.writeframes(audio.samples)


def _is_number(cell: str) -> bool:
    """Whether the row scan accepts a cell: plain decimal text, as np.loadtxt parses it."""
    try:
        float(cell)
    except ValueError:
        return False
    # float() also takes digit-group underscores and non-ASCII digits and spaces; loadtxt does not.
    return "_" not in cell and cell.isascii()


#: Data rows np.loadtxt parses at a time. Each chunk is split and checked
#: with about 20 numpy calls, which cost little next to the parse from
#: about 4096 rows on (1024 made a 10-min IMU read about 1.5% slower), and
#: its buffers stay small: about 1.2 MB at 4096 rows, 1.9 MB at 8192.
_PARSE_ROWS = 4096


#: Bytes _line_ends reads at a time.
_COUNT_BYTES = 1 << 16


def _line_ends(path) -> tuple[int, bool]:
    """The lines of the file as the CSV parser ends them, and whether any ends at a lone \\r.

    A line ends at \\n, at \\r\\n or at a \\r that no \\n follows; a last
    line without an end counts too.
    """
    lines = lone_cr = 0
    last = b""
    with open(path, "rb") as fh:
        while chunk := fh.read(_COUNT_BYTES):
            data = np.frombuffer(chunk, dtype=np.uint8)
            lf, cr = data == ord("\n"), data == ord("\r")
            lines += int(np.count_nonzero(lf))
            crs = int(np.count_nonzero(cr))
            if crs or last == b"\r":  # every \r, less those a \n follows, here or across the chunk start
                lone_cr += crs - int(np.count_nonzero(cr[:-1] & lf[1:])) - (last == b"\r" and bool(lf[0]))
            last = chunk[-1:]
    return lines + lone_cr + (last not in (b"", b"\n", b"\r")), lone_cr > 0


def _open_text(path, encoding="utf-8-sig"):
    """The CSV as text, each line ended at \\n, \\r\\n or a lone \\r; a byte the encoding rejects reads as U+FFFD."""
    return open(path, newline="", encoding=encoding, errors="replace")


def _read_numeric_csv(path, columns, split=None):
    """Parse the named columns of every data row into 1-D arrays, one chunk of rows at a time.

    The header's stripped fields must name every column, in any order,
    beside any others; an empty file fails as missing header. Cells are
    plain decimal text: no quoting, no comments; blank lines are skipped
    and fields past the last parsed column are ignored. The header is
    UTF-8 without its byte-order mark. The rows are parsed from a binary
    handle, which np.loadtxt decodes as latin-1, so a byte that is not
    UTF-8 fails only in a parsed cell. numpy's binary reader ends lines at
    \\n alone, so a file with a line ended by a lone \\r (see _line_ends)
    is parsed from a latin-1 text handle instead, which hands np.loadtxt
    the same strings. np.loadtxt parses _PARSE_ROWS rows at a time from
    the open file, and split(part, first) maps each chunk, a contiguous
    (len(columns), k) array of the k data rows from data row first on, to
    the 1-D arrays of k values to keep, or to () to keep none of it;
    without split every column is kept. Each kept array goes into its own
    array, one per array of the first chunk kept and sized from the file's
    line count, so no array but those is the size of the data. Returns the
    arrays and row_of, which maps a data-row index to its CSV row number
    (header = row 1, blank lines counted), reading the file as UTF-8 text
    with U+FFFD for a bad byte. A rejected file is scanned so, row by row,
    only then, for the first offending row.
    """
    lines, lone_cr = _line_ends(path)
    capacity = max(lines - 1, 0)
    arrays = []
    filled = 0
    with _open_text(path, "latin-1") if lone_cr else open(path, "rb") as fh:
        first = fh.readline()
        first = (first.encode("latin-1") if lone_cr else first).decode("utf-8-sig", "replace")
        if not first:
            raise ValueError("missing header")
        header = [h.strip() for h in next(csv.reader([first]), [])]
        for col in columns:
            if col not in header:
                raise ValueError(f"missing column {col}")
        positions = [header.index(col) for col in columns]

        def row_of(index: int | None) -> int:
            with _open_text(path) as rows:
                rows.readline()
                return _scan_rows(rows, columns, positions, len(header), stop_at=index)

        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                warnings.filterwarnings("ignore", "Input line [0-9]+ contained no data")  # blank lines
                while True:
                    # One contiguous row per column: the checks read rows about 10 times faster than strided.
                    part = np.ascontiguousarray(np.loadtxt(fh, delimiter=",", usecols=positions, comments=None,
                                                           ndmin=2, max_rows=_PARSE_ROWS).T)
                    rows = part.shape[1]
                    kept = part if split is None else split(part, filled)
                    arrays = arrays or [np.empty(capacity) for _ in kept]
                    for array, row in zip(arrays, kept):
                        array[filled : filled + rows] = row
                    filled += rows
                    if rows < _PARSE_ROWS:
                        break
        except ValueError as exc:
            row_of(None)
            raise ValueError(f"unparsable data: {exc}") from exc
    if filled < capacity:  # blank lines
        for i, array in enumerate(arrays):
            arrays[i] = array[:filled].copy()
    return arrays, row_of


def _scan_rows(lines, columns, positions, n_fields: int, stop_at: int | None) -> int:
    """Walk data rows from CSV row 2, raising at the first short or non-numeric row.

    Returns the CSV row number of data row stop_at; with stop_at None a
    clean walk returns -1.
    """
    needed = max(positions) + 1
    index = 0
    for row_num, line in enumerate(lines, start=2):
        cells = line.rstrip("\r\n").split(",")
        if cells == [""]:
            continue
        if len(cells) < needed:
            raise ValueError(f"row {row_num}: expected {n_fields} fields, got {len(cells)}")
        for pos, col in zip(positions, columns):
            if not _is_number(cells[pos]):
                raise ValueError(f"row {row_num}: non-numeric value {cells[pos]!r} in column {col}")
        if index == stop_at:
            return row_num
        index += 1
    return -1


def read_imu_csv(path) -> ImuComponents:
    """Parse an IMU stream straight into its components on the 100 Hz grid.

    The header must name every IMU column. Each parsed chunk is checked
    for the sensor range invariants and split (imu.split_components) into
    the timestamps and four component arrays, so the six sensor columns
    are never held whole; imu.grid_components then checks the timestamps
    and snaps the components onto the grid. Errors name the CSV row
    (header = row 1, blank lines counted but skipped); a file that does not
    parse fails as such, even after a range error in an earlier row.
    """

    bad = []  # the first sample out of range, reported once the whole file has parsed

    def split(part, first):
        if not bad:
            fault = first_invalid_sample(part)
            if fault is None:
                return split_components(part)
            bad.append((first + fault[0], fault[1]))
        return ()

    rows, row_of = _read_numeric_csv(path, IMU_FIELDS, split)
    if bad:
        raise ValueError(f"row {row_of(bad[0][0])}: {bad[0][1]}")
    return grid_components(rows, where=lambda i: f"row {row_of(i)}")


#: Rows formatted per chunk by _fixed_rows: an IMU chunk peaks at about 1.7 MB of slots, masks and text.
_FORMAT_ROWS = 4096

#: Tables shorter than this are written by % rows. _fixed_rows costs about
#: 60 us per column whatever the row count, % rows about 0.9 us per row and
#: column: measured on 1, 2 and 7 columns, % rows were faster up to 128 rows
#: and _fixed_rows from 256 on.
_FIXED_MIN_ROWS = 256

#: The two ASCII decimal digits of 0-99, as one 16-bit entry each.
_DIGIT_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), dtype=np.uint16)


def _digits(values: np.ndarray, count: int) -> np.ndarray:
    """The (k, count) ASCII digits of k non-negative integers below 10**count, zero-padded, two at a time."""
    pairs = np.empty((values.size, (count + 1) // 2), dtype=np.uint16)
    for j in range(pairs.shape[1] - 1, -1, -1):
        quotient = values // 100  # a division by a constant is vectorized; % is not
        pairs[:, j] = _DIGIT_PAIRS[values - 100 * quotient]
        values = quotient
    return pairs.view(np.uint8)[:, count % 2 :]


def _fixed_rows(table: np.ndarray, decimals, row_format: str, end: bytes) -> bytes:
    """The bytes of row_format % row for each row of the 2-D float table, where row_format is "%.{p}f" per column.

    Each column is formatted at once: y = x * 10**p, N = rint(y). When
    |y - N| < 0.5 - spacing(|y|), the exact value x * 10**p (y is within
    half a spacing of it) is strictly nearer N than any other integer, so
    the correctly rounded "%.{p}f" of x prints the digits of |N|, after a
    minus sign when x's sign bit is set (-0.0 and negatives that round to
    0 print -0.000). A row with a value that fails this test (a possible
    tie, |y| >= 2**52, a NaN or an infinity) is formatted by row_format.
    Each field has a fixed-width slot: a minus sign, its whole digits
    zero-padded to the column's widest, the point, the decimals and the
    comma or line end. One mask keeps the sign of negative values and the
    whole digits from the first significant one, so compacting the slots
    by it leaves the text in row order.
    """
    rows = table.shape[0]
    slots, keep = [], []
    exact = np.ones(rows, dtype=bool)
    for i, (column, p) in enumerate(zip(table.T, decimals)):
        y = np.abs(column * 10.0**p)  # |x| * 10**p: the product of |x| rounds as that of x
        n = np.rint(y)
        with np.errstate(invalid="ignore"):  # inf - inf
            ok = np.abs(y - n) < 0.5 - np.spacing(y)
        exact &= ok
        n = np.where(ok, n, 0).astype(np.uint64)
        whole = n // np.uint64(10**p)
        width = len(str(int(whole.max(initial=0))))  # digits of the widest whole part
        digits = _digits(n, width + p)
        tail = end if i == len(decimals) - 1 else b","
        slot = np.empty((rows, 2 + width + p + len(tail)), dtype=np.uint8)
        slot[:, 0] = ord("-")
        slot[:, 1 : 1 + width] = digits[:, :width]
        slot[:, 1 + width] = ord(".")
        slot[:, 2 + width : 2 + width + p] = digits[:, width:]
        slot[:, 2 + width + p :] = np.frombuffer(tail, dtype=np.uint8)
        kept = np.ones(slot.shape, dtype=bool)
        kept[:, 0] = np.signbit(column)  # not out=: numpy 2.4.6's signbit fills a strided out wrongly
        for k in range(1, width):  # the digit of 10**k, at slot byte width - k
            np.greater_equal(whole, 10**k, out=kept[:, width - k])
        slots.append(slot)
        keep.append(kept)
    mask = np.concatenate(keep, axis=1)
    mask[~exact] = False
    text = np.concatenate(slots, axis=1)[mask].tobytes()
    if exact.all():
        return text
    # A row left out holds no bytes, so the rows before it end where its text goes.
    ends = np.cumsum(mask.sum(axis=1))
    pieces, at = [], 0
    for row in np.flatnonzero(~exact):
        pieces += [text[at : ends[row]], (row_format % tuple(table[row].tolist())).encode() + end]
        at = ends[row]
    return b"".join(pieces + [text[at:]])


def _write_csv(path, columns, row_format: str, table: np.ndarray, end: str = "\n") -> None:
    """Write the header, then row_format % row for each row of the 2-D table, lines ended by end.

    A table of _FIXED_MIN_ROWS rows or more whose row_format is "%.{p}f"
    per column is formatted a column at a time by _fixed_rows, with the
    same bytes, _FORMAT_ROWS rows per write.
    """
    fields = row_format.split(",")
    decimals = [int(f[2:-1]) for f in fields if re.fullmatch(r"%\.[1-9]f", f)]
    with open(path, "wb") as fh:
        fh.write((",".join(columns) + end).encode())
        if len(table) < _FIXED_MIN_ROWS or len(decimals) < len(fields):
            fh.write("".join([(row_format + end) % tuple(row) for row in table.tolist()]).encode())
            return
        for start in range(0, len(table), _FORMAT_ROWS):
            fh.write(_fixed_rows(table[start : start + _FORMAT_ROWS], decimals, row_format, end.encode()))


def write_imu_csv(path, stream: ImuStream) -> None:
    """The time to 3 decimals and the six sensors to 6, in lines ended by CRLF, csv.writer's terminator."""
    _write_csv(path, IMU_FIELDS, "%.3f" + ",%.6f" * 6, stream.block.T, end="\r\n")


def read_labels_csv(path) -> LabelSet:
    """The shot timestamps in the t_ms column of a CSV."""
    (shots,), _ = _read_numeric_csv(path, LABEL_COLUMNS)
    return LabelSet(freeze_in_place(shots))


def write_labels_csv(path, labels: LabelSet) -> None:
    _write_csv(path, LABEL_COLUMNS, "%.3f", labels.shots[:, None])


def read_events_csv(path) -> np.ndarray:
    """The (n, 2) event table of the time_ms and score columns of a CSV, in file order."""
    columns, _ = _read_numeric_csv(path, EVENT_COLUMNS)
    return np.stack(columns, axis=1)


def write_events_csv(path, events: np.ndarray) -> None:
    _write_csv(path, EVENT_COLUMNS, "%.3f,%.6f", events)


def write_series_csv(path, series: SampleSeries) -> None:
    """Dump a series as time_ms,value rows for external plotting."""
    _write_csv(path, ("time_ms", "value"), "%.3f,%.9g", np.column_stack((series.times(), series.values)))


def _json_text(value, indent: str) -> str:
    """json.dumps(value, indent=2, sort_keys=True) as it reads nested at indent, a list of plain numbers in one join.

    json writes an int by int.__repr__ and a finite float by float.__repr__,
    so the join is its text; a NaN or an infinity, whose repr holds an n,
    and every other value go to json itself.
    """
    inner = indent + "  "
    if type(value) is list and value and set(map(type, value)) <= {int, float}:
        text = (",\n" + inner).join(map(repr, value))
        if "n" not in text:
            return f"[\n{inner}{text}\n{indent}]"
    elif type(value) is dict and value and set(map(type, value)) == {str}:
        items = (f"{inner}{json.dumps(k)}: {_json_text(v, inner)}" for k, v in sorted(value.items()))
        return "{\n" + ",\n".join(items) + f"\n{indent}}}"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def write_json(path, payload) -> None:
    """Write payload as JSON indented by 2, with sorted keys and a final newline, in one write.

    The text is json.dumps(payload, indent=2, sort_keys=True) + "\\n", byte
    for byte; json's encoder, pure Python when it indents, writes lists of
    numbers one item at a time, and _json_text joins them.
    """
    text = _json_text(payload, "") + "\n"
    with open(path, "w") as fh:
        fh.write(text)


@contextmanager
def _json_object(what: str, fh):
    """The JSON object in fh, for a block that reads what (a model or a config) from it.

    Every error of the parse or the block names what; a missing key names
    the field.
    """
    try:
        yield _expect(json.load(fh), "object", "top level")
    except KeyError as exc:
        raise ValueError(f"{what}: missing field {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


#: JSON's name for each type json.load returns.
_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "number", float: "number",
               bool: "boolean", type(None): "null"}


def _expect(value, json_type: str, where: str):
    """value itself when json.load gave it the JSON type a payload needs at `where`.

    Types are matched by their JSON names, so a boolean is not a number.
    """
    if _JSON_TYPES[type(value)] != json_type:
        raise ValueError(f"{where} must be a JSON {json_type}, got {_JSON_TYPES[type(value)]}")
    return value


def _float(value, where: str) -> float:
    """The JSON number json.load gave at `where` as a float; an integer no float can hold is named."""
    try:
        return float(_expect(value, "number", where))
    except OverflowError:
        raise ValueError(f"{where} is too large for a float") from None


#: The frame geometry a filter model is written for; loading accepts no other.
_FILTER_GEOMETRY = {"sample_rate": SAMPLE_RATE_HZ, "microframe_ms": MICROFRAME_MS}


def save_filter_model(path, model: FilterModel) -> None:
    payload = {
        "weights": [float(w) for w in model.weights],
        "bias": float(model.bias),
        **_FILTER_GEOMETRY,
    }
    write_json(path, payload)


def load_filter_model(path) -> FilterModel:
    with open(path) as fh, _json_object("filter model", fh) as payload:
        model = FilterModel(_number_array(payload, "weights", float), _float(payload["bias"], "bias"))
        for name, fixed in _FILTER_GEOMETRY.items():
            if _integer(payload[name], name) != fixed:
                raise ValueError(f"{name} must be {fixed}, got {payload[name]!r}")
    return model


def save_forest_model(path, model: ForestModel) -> None:
    """Write the node table as it is: the seed, then sizes and the NODE_FIELDS as flat arrays, by their field names."""
    write_json(path, {"seed": model.seed, **{name: getattr(model, name).tolist() for name in NODE_FIELDS + ("sizes",)}})


def _shown(value) -> str:
    """value as an error message shows it: an array or an object by its JSON type, anything else as JSON text."""
    return _JSON_TYPES[type(value)] if type(value) in (list, dict) else json.dumps(value)


def _integer(value, where: str) -> int:
    """value itself when json.load gave it a JSON integer; a boolean is not one."""
    if type(value) is not int:
        raise ValueError(f"{where} must be a JSON integer, got {_shown(value)}")
    return value


_INT64 = (-(1 << 63), (1 << 63) - 1)


def _int64(value, where: str) -> None:
    """Check that value is a JSON integer that an int64 array can hold."""
    if not _INT64[0] <= _integer(value, where) <= _INT64[1]:
        raise ValueError(f"{where} is outside the 64-bit integer range")


def _finite_number(value, where: str) -> None:
    if type(value) not in (int, float) or not math.isfinite(_float(value, where)):
        raise ValueError(f"{where} must be a finite JSON number, got {_shown(value)}")


def _number_array(payload, name: str, dtype) -> np.ndarray:
    """The JSON array payload[name] as a frozen array of dtype: float from finite JSON numbers, np.int64 from integers.

    Its entries are checked in one pass over their types and one over
    their values; only a rejected array is walked again, for its first bad
    entry.
    """
    entries = _expect(payload[name], "array", name)
    kinds = set(map(type, entries))
    if dtype is float:
        try:
            array = np.array(entries, dtype=float) if kinds <= {int, float} else None
        except OverflowError:  # an integer no float can hold; the walk names it
            array = None
        valid, check = array is not None and bool(np.isfinite(array).all()), _finite_number
    else:
        valid = kinds <= {int} and (not entries or (min(entries) >= _INT64[0] and max(entries) <= _INT64[1]))
        array, check = np.array(entries, dtype=np.int64) if valid else None, _int64
    if not valid:
        for i, value in enumerate(entries):
            check(value, f"{name}[{i}]")
    return freeze_in_place(array)


def load_forest_model(path) -> ForestModel:
    """The forest in a model file, its arrays read straight into the node table that ForestModel checks."""
    with open(path) as fh, _json_object("forest model", fh) as payload:
        columns = [_number_array(payload, name, float if name == "threshold" else np.int64)
                   for name in NODE_FIELDS + ("sizes",)]
        return ForestModel(*columns, _integer(payload["seed"], "seed"))


def read_synth_config(path) -> SynthConfig:
    """The SynthConfig of the fields a JSON object sets, the others at their defaults; SynthConfig checks the values."""
    if not Path(path).exists():
        raise FileNotFoundError(f"synth config not found: {path}")
    with open(path) as fh, _json_object("synth config", fh) as payload:
        unknown = [key for key in payload if key not in {f.name for f in fields(SynthConfig)}]
        if unknown:
            raise ValueError(f"unknown field {unknown[0]!r}")
    return SynthConfig(**payload)


def ensure_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p
