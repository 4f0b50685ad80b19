"""Workload traces: normalized CSV ingestion, synthetic generation, and
popularity-skew analysis.

The ingestion boundary is a normalized CSV (``timestamp_ms,function_id``)
read from a seekable stream; converting platform-native trace archives
into this format is left to external tooling. A ``Trace`` holds that CSV's
rows as numpy columns: an int64 timestamp array, an int32 array of id
codes, and the sorted distinct function ids that the codes index. A trace
has this one form, so equal traces have equal columns. It keeps no object
per row; consumers count codes, or walk the rows a bounded chunk at a
time. All operations here are pure and a ``Trace`` is immutable after
construction.

Each column is held once: ``parse_trace`` counts the rows in a first
read, then writes each block of the second read straight into
preallocated columns, ``generate_synthetic`` drops its ranks before it
draws the stamps, which it sorts in place, and ``request_counts``, the one
count of the codes, counts them a chunk at a time.

``parse_trace`` reads the CSV in blocks of text. A block of canonical rows
(plain digits, one comma, an id) is parsed by numpy passes over its bytes,
with no Python statement per row; any other block is parsed row by row, and
that loop alone defines which rows are valid and what each error says.
Both key one map by each id's UTF-8 bytes, decoded once after the last block.

``format_rows`` formats both bulk CSVs, a trace and a simulation's
per-request rows, by numpy passes over a bounded piece of rows at a time:
each integer's digits four at a time from a table of the 10,000 four-digit
ASCII words, the text after it from a table with one row per distinct text.
Each writer checks every name before it writes anything.
"""

from __future__ import annotations

import io
import json
import math
import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from decimal import Decimal
from itertools import chain, repeat
from typing import IO, Callable, Iterable, Iterator, Sequence

import numpy as np

TRACE_HEADER = "timestamp_ms,function_id"
PROFILE_HEADER = "function_id,runtime,exec_duration_ms,dependencies"

DEFAULT_THRESHOLD_TARGETS = (0.5, 0.8)

MAX_TIMESTAMP_MS = (1 << 63) - 1  # the largest value of the int64 timestamp column
BLOCK = 1 << 19  # characters of trace text parsed per block
ROW_CHUNK = 1 << 12  # rows a trace is walked, or its parsed codes remapped, at a time
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)  # keep n low bytes
_ZEROS = np.uint64(0x3030303030303030)  # eight ASCII '0'
_SIXES = np.uint64(0x0606060606060606)
_HIGH_NIBBLES = np.uint64(0xF0F0F0F0F0F0F0F0)
_EIGHT_DIGIT_PLACES = np.array([1, 10**8, 10**16], dtype=np.int64)
_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd, so the multiply is invertible
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)  # a stamp has one digit more than it reaches
# each value below 10**4 as four ASCII digits, the leading digit in the lowest byte
_QUADS = (np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8).view("<u4").ravel()
_ROW_BYTES = 1 << 18  # bytes of row matrix the trace writer formats at a time


class TraceParseError(ValueError):
    """Malformed normalized trace or profile CSV."""


class Trace:
    """Invocation events in time order, held as columns.

    Row ``i`` is a request for ``names[codes[i]]`` at ``stamps[i]``.
    ``stamps`` is an int64 array, ``codes`` an int32 array, and ``names``
    holds the distinct ids in sorted order, each of which occurs.
    Timestamps are in ``0..MAX_TIMESTAMP_MS`` and non-decreasing, and ids
    are non-empty. Every trace of the same rows has the same three fields,
    so two traces are equal when their fields are. The trace keeps no
    record of its source and no object per row.
    """

    __slots__ = ("stamps", "codes", "names")

    def __init__(self, timestamps_ms: Iterable[int], function_ids: Iterable[str]) -> None:
        stamps = list(map(operator.index, timestamps_ms))
        ids = list(function_ids)
        if len(stamps) != len(ids):
            raise ValueError("timestamps_ms and function_ids must have equal lengths")
        if stamps and min(stamps) < 0:
            raise ValueError("timestamp_ms must be >= 0")
        if stamps and max(stamps) > MAX_TIMESTAMP_MS:
            raise ValueError(f"timestamp_ms must be <= {MAX_TIMESTAMP_MS}")
        column = np.array(stamps, dtype=np.int64)
        if (column[1:] < column[:-1]).any():
            raise ValueError("trace rows must be sorted by timestamp_ms")
        if not all(ids):
            raise ValueError("function_id must be non-empty")
        names = tuple(sorted(set(ids)))
        code = {name: c for c, name in enumerate(names)}
        self._set(column, np.array([code[f] for f in ids], dtype=np.int32), names)

    @classmethod
    def _from_valid_columns(cls, stamps: np.ndarray, codes: np.ndarray, names: tuple[str, ...]) -> "Trace":
        """A trace from columns already known to pass ``__init__``'s checks, unchecked.

        ``names`` must be sorted, each name must occur, and ``codes`` must index it.
        """
        trace = object.__new__(cls)
        trace._set(stamps, codes, names)
        return trace

    def _set(self, stamps: np.ndarray, codes: np.ndarray, names: tuple[str, ...]) -> None:
        stamps.flags.writeable = codes.flags.writeable = False
        for attr, value in (("stamps", stamps), ("codes", codes), ("names", names)):
            object.__setattr__(self, attr, value)

    def __setattr__(self, name, value):
        raise AttributeError("a Trace is immutable")

    def __len__(self) -> int:
        return len(self.codes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.names == other.names
            and np.array_equal(self.stamps, other.stamps)
            and np.array_equal(self.codes, other.codes)
        )

    def __repr__(self) -> str:
        return f"Trace(<{len(self)} rows of {len(self.names)} functions>)"


@dataclass(frozen=True, slots=True)
class FunctionProfile:
    """Static per-function metadata: runtime tag, dependency set, execution time."""

    function_id: str
    runtime: str = "python"
    dependencies: frozenset[str] = frozenset()
    exec_duration_ms: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "dependencies", frozenset(self.dependencies))
        if not self.function_id:
            raise ValueError("function_id must be non-empty")
        if not self.runtime:
            raise ValueError("runtime must be non-empty")
        if "" in self.dependencies:
            raise ValueError("dependency names must be non-empty")
        if self.exec_duration_ms < 0:
            raise ValueError("exec_duration_ms must be >= 0")


@dataclass(frozen=True)
class SyntheticTraceSpec:
    """Parameters for the seeded Zipf trace generator."""

    num_functions: int
    num_requests: int
    zipf_exponent: float
    duration_ms: int
    seed: int

    def __post_init__(self) -> None:
        if self.num_functions < 1:
            raise ValueError("num_functions must be >= 1")
        if self.num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        check_exponent(self.zipf_exponent)
        if not 1 <= self.duration_ms <= MAX_TIMESTAMP_MS + 1:  # stamps are drawn below it
            raise ValueError(f"duration_ms must be in 1..{MAX_TIMESTAMP_MS + 1}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class SkewSummary:
    """Popularity CDF over rank-ordered functions plus coverage thresholds.

    ``cdf_points[i]`` is (fraction of functions, fraction of requests) after
    the i+1 most-invoked functions. ``thresholds[t]`` is the smallest
    function fraction whose cumulative request fraction reaches ``t``.
    """

    cdf_points: tuple[tuple[float, float], ...]
    thresholds: dict[float, float] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "cdf": [[f, r] for f, r in self.cdf_points],
            "thresholds": {str(t): v for t, v in sorted(self.thresholds.items())},
        }
        return json.dumps(payload, sort_keys=True)


def parse_trace(stream: IO[str]) -> Trace:
    """Parse a normalized trace CSV into a Trace sorted stably by timestamp.

    Rows end at ``\\n``, as they do in a file opened in text mode with the
    default newline handling. The body is read in blocks of about ``BLOCK``
    characters, each ending at a row boundary. A block whose rows are all
    canonical (``timestamp_ms`` of 1-18 ASCII digits, one comma, then a
    non-empty ``function_id`` with no CR or NUL) is parsed by numpy passes
    over its UTF-8 bytes. Any other block goes through the row-by-row parse,
    which defines what is valid, so other forms ``int()`` accepts (``+12``,
    `` 12``, ``1_000``, a CRLF ending) still parse. Only the rows are kept;
    callers that need the source keep its path.

    Each column is held once: the rows are counted in a first read of the
    text, the stream is sought back, and the second read writes each block
    into preallocated int64 and int32 columns, whose id codes are then
    remapped to name order in place. So the stream must be seekable, as a
    file or a ``StringIO`` is; a pipe is refused. A sorted input is never
    copied; an unsorted one is sorted by a stable argsort, which copies
    both columns.

    Both paths code an id by one map keyed by its UTF-8 bytes. The names
    are those keys sorted, then decoded: UTF-8 byte order is code-point
    order, lone surrogates (``"surrogatepass"``) included.

    Raises TraceParseError naming the offending line for malformed rows, for
    a stream that is not seekable, and for one whose second read yields a
    different number of rows. A header-only input yields a valid empty Trace.
    """
    if not stream.seekable():
        raise TraceParseError("the trace input must be seekable: its rows are counted before they are parsed")
    header = stream.readline()
    if not header:
        raise TraceParseError("line 1: missing header")
    if header.strip() != TRACE_HEADER:
        raise TraceParseError(f"line 1: expected header {TRACE_HEADER!r}")
    rows = _count_rows(stream)
    stamps = np.empty(rows, dtype=np.int64)
    id_codes = np.empty(rows, dtype=np.int32)  # first-seen codes until remapped to name order
    codes: dict[bytes, int] = {}  # an id's UTF-8 bytes -> its first-seen code
    n = 0
    ordered = True  # whether the rows written so far are sorted by timestamp
    while block := stream.read(BLOCK):
        block += stream.readline()  # finish the block's last row
        parsed = _parse_canonical_block(block, codes)
        if parsed is None:
            parsed = _parse_rows(io.StringIO(block), n + 2, codes)
        m = len(parsed[0])
        if n + m > rows:
            break  # more rows than were counted; nothing is written past the end
        stamps[n:n + m], id_codes[n:n + m] = parsed
        written = stamps[max(n - 1, 0):n + m]  # the block's stamps and the one before them
        ordered = ordered and not (written[1:] < written[:-1]).any()
        n += m
    if block or n != rows:  # a block left unwritten, or fewer rows than counted
        raise TraceParseError("the trace input changed while it was read: its row count differs between two reads")
    keys = sorted(codes)  # in the order of the decoded names
    names = tuple(key.decode("utf-8", "surrogatepass") for key in keys)
    rank = np.empty(len(keys), dtype=np.int32)  # first-seen code -> code in ``names``
    rank[[codes[key] for key in keys]] = np.arange(len(keys))
    for start in range(0, rows, ROW_CHUNK):  # in place: a whole-column index would copy the codes as intp
        piece = id_codes[start:start + ROW_CHUNK]
        piece[:] = rank[piece]
    if not ordered:
        order = np.argsort(stamps, kind="stable")  # stable: ties keep file order
        stamps, id_codes = stamps[order], id_codes[order]
        del order
    # every row was checked as it was parsed, the rows are now sorted, and
    # ``names`` holds exactly the ids they name
    return Trace._from_valid_columns(stamps, id_codes, names)


def _count_rows(stream: IO[str]) -> int:
    """The rows from the stream's position to its end, split at ``\\n`` as the
    parse splits them; the stream is left at the position it had."""
    start = stream.tell()
    rows = 0
    ends_row = True  # whether the text read so far ends at a row boundary
    while block := stream.read(BLOCK):
        rows += block.count("\n")
        ends_row = block.endswith("\n")
    stream.seek(start)
    return rows + (not ends_row)


def _parse_rows(lines: Iterable[str], lineno: int, codes: dict[bytes, int]) -> tuple[list[int], list[int]]:
    """Parse rows one by one from line number ``lineno`` on, returning their
    timestamps and id codes. This loop defines a valid row and every error."""
    stamps: list[int] = []
    ids: list[int] = []
    for lineno, line in enumerate(lines, start=lineno):
        row = line.rstrip("\r\n")
        parts = row.split(",")
        if len(parts) != 2:
            raise TraceParseError(f"line {lineno}: expected 2 columns, got {len(parts)}")
        ts_text, function_id = parts
        try:
            ts = int(ts_text)
        except ValueError:
            raise TraceParseError(f"line {lineno}: timestamp_ms is not an integer: {ts_text!r}") from None
        if ts < 0:
            raise TraceParseError(f"line {lineno}: timestamp_ms must be >= 0")
        if ts > MAX_TIMESTAMP_MS:
            raise TraceParseError(f"line {lineno}: timestamp_ms must be <= {MAX_TIMESTAMP_MS}")
        if not function_id:
            raise TraceParseError(f"line {lineno}: empty function_id")
        stamps.append(ts)
        ids.append(codes.setdefault(function_id.encode("utf-8", "surrogatepass"), len(codes)))
    return stamps, ids


def _parse_canonical_block(block: str, codes: dict[bytes, int]) -> tuple[np.ndarray, np.ndarray] | None:
    """int64 timestamps and int32 id codes of a block of canonical rows, or
    None, having changed nothing, if any row is not canonical.

    An id is read as little-endian 64-bit words, zeroed past its end; an id
    holds no NUL, so its words determine it. The words are hashed into one
    key, rows are grouped by sorting the keys, and a block in which two
    different ids would share a group is left to the row loop. An id whose
    bytes ``codes`` lacks is given the next code.
    """
    raw = bytes(8) + block.encode("utf-8", "surrogatepass") + bytes(8)  # padded for 8-byte reads
    data = np.frombuffer(raw, dtype=np.uint8)
    body = data[8:-8]
    if np.count_nonzero(body == 13) or np.count_nonzero(body == 0):
        return None
    ends = np.flatnonzero(body == 10) + 8
    if not block.endswith("\n"):
        ends = np.append(ends, len(raw) - 8)
    commas = np.flatnonzero(body == 44) + 8
    n = len(ends)
    if len(commas) != n:
        return None
    digits = commas - np.concatenate(([8], ends[:-1] + 1))
    widths = ends - commas - 1
    # as many commas as rows, each inside its own row: one comma per row
    if digits.min() < 1 or digits.max() > 18 or widths.min() < 1:
        return None

    # the 8 bytes at every offset, as one unaligned little-endian uint64
    words_at = np.ndarray((len(raw) - 7,), dtype="<u8", buffer=raw, strides=(1,))
    stamps = np.zeros(n, dtype=np.int64)
    for k in range((int(digits.max()) + 7) // 8):  # 8 digits at a time, from the right
        word = words_at[np.maximum(commas - 8 * (k + 1), 0)]
        lead = _LOW_BYTES[np.clip(8 * (k + 1) - digits, 0, 8)]  # the bytes before the first digit
        word = word & ~lead | _ZEROS & lead
        if ((word & _HIGH_NIBBLES) != _ZEROS).any() or (((word + _SIXES) & _HIGH_NIBBLES) != _ZEROS).any():
            return None  # a byte outside '0'..'9'
        stamps += _eight_digits(word).astype(np.int64) * _EIGHT_DIGIT_PLACES[k]

    width = (int(widths.max()) + 7) // 8  # words in the longest id
    if n * width > len(raw) // 4:
        return None  # ids so uneven in length that their words would outgrow the text
    words = []
    for k in range(width):
        word = words_at[np.minimum(commas + 1 + 8 * k, len(words_at) - 1)]
        word &= _LOW_BYTES[np.clip(widths - 8 * k, 0, 8)]
        words.append(word)
    key = words[0]
    for word in words[1:]:
        key = key * _MIX ^ word
    # sort the hashed keys with each row's index in the low bits
    bits = n.bit_length()
    tagged = np.sort((key * _MIX >> np.uint64(bits)) << np.uint64(bits) | np.arange(n, dtype=np.uint64))
    rows = (tagged & np.uint64((1 << bits) - 1)).astype(np.intp)
    tagged >>= np.uint64(bits)
    starts = np.concatenate(([True], tagged[1:] != tagged[:-1]))
    group = np.empty(n, dtype=np.intp)
    group[rows] = np.cumsum(starts) - 1
    first = rows[starts]  # one row of each group
    if any((word[first][group] != word).any() for word in words):
        return None  # two different ids in one group

    # each group's id as bytes: numpy drops the zero padding
    keys = np.stack([word[first] for word in words], axis=1).view(f"S{8 * len(words)}").ravel().tolist()
    lookup = np.fromiter(map(codes.get, keys, repeat(-1)), dtype=np.int32, count=len(keys))
    for i in np.flatnonzero(lookup < 0).tolist():  # ids no earlier row named
        lookup[i] = codes[keys[i]] = len(codes)
    return stamps, lookup[group]


def _eight_digits(word: np.ndarray) -> np.ndarray:
    """The value of the eight ASCII digits in each little-endian uint64, its
    lowest byte the leading digit: pairs, then quads, then all eight, are
    combined in place (Lemire, "Faster integer parsing", 2018)."""
    word = word & np.uint64(0x0F0F0F0F0F0F0F0F)
    word = (word * np.uint64(10) + (word >> np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    word = (word * np.uint64(100) + (word >> np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    return (word * np.uint64(10000) + (word >> np.uint64(32))) & np.uint64(0xFFFFFFFF)


def load_trace(path) -> Trace:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_trace(handle)


_ROW_SEPARATORS = ",\n\r"  # a reader splits a row at each; it drops a trailing "\r"


def _check_identifier(name: str, forbidden: str) -> None:
    """Refuse an empty name, or one that its CSV reader would split or alter: ``forbidden`` holds its separators."""
    if not name or any(char in name for char in forbidden):
        raise ValueError(f"identifier not representable in CSV: {name!r}")


def check_profile_name(name: str) -> str:
    """``name`` itself when the profile CSV can hold it as an id, runtime or dependency; a ValueError otherwise."""
    _check_identifier(name, _ROW_SEPARATORS + ";")  # ";" separates dependencies
    return name


def text_table(texts: Sequence[str], widest: int) -> tuple[np.ndarray, np.ndarray, int]:
    """``format_rows``'s table of ``texts`` after values up to ``widest``: a matrix of rows, each a
    placeholder of ``widest``'s digit count, a text in UTF-8 and NUL padding; each row's end; the digit count."""
    digits = len(str(widest))
    encoded = [text.encode("utf-8", "surrogatepass") for text in texts]
    width = digits + max(map(len, encoded), default=0)
    matrix = np.frombuffer(
        b"".join([bytes(digits) + text.ljust(width - digits, b"\0") for text in encoded]), dtype=np.uint8
    ).reshape(len(encoded), width)
    column_type = np.min_scalar_type(width)  # uint8 for any row of up to 255 bytes
    return matrix, np.array([digits + len(text) for text in encoded], dtype=column_type), digits


def format_rows(pairs: Sequence[tuple[np.ndarray, tuple[np.ndarray, np.ndarray, int], np.ndarray]]) -> Iterator[str]:
    """Rows of text by numpy passes; row ``i`` is ``f"{values[i]}{texts[codes[i]]}"`` over ``pairs``.

    A pair is non-negative ``values``, a ``text_table`` whose placeholder
    holds each, and ``codes`` into it. A piece of rows is a matrix, per pair
    ``[value's digits with leading zeros | text | NUL padding]``; a keep-mask
    built from lengths, as a text may hold NUL, drops the zeros and padding.
    A piece holds at most ``_ROW_BYTES`` of matrix, or one row.
    """
    rows = max(1, _ROW_BYTES // sum(matrix.shape[1] for _, (matrix, _, _), _ in pairs))
    for start in range(0, len(pairs[0][0]), rows):
        pieces, keeps = [], []
        for values, (table, ends, digits), codes in pairs:
            values, codes = values[start:start + rows], codes[start:start + rows]
            piece = table[codes]
            piece[:, :digits] = _ascii_digits(values, digits)
            first = (digits - 1 - np.searchsorted(_POWERS_OF_TEN, values, side="right")).astype(ends.dtype)
            # first <= column < end, as one unsigned compare: columns before ``first`` wrap past the width
            keeps.append(np.arange(table.shape[1], dtype=ends.dtype) - first[:, None] < (ends[codes] - first)[:, None])
            pieces.append(piece)
        if len(pairs) > 1:  # one pair, as the trace writer's, is kept without a copy
            pieces, keeps = [np.hstack(pieces)], [np.hstack(keeps)]
        yield pieces[0][keeps[0]].tobytes().decode("utf-8", "surrogatepass")


def _ascii_digits(values: np.ndarray, width: int) -> np.ndarray:
    """Each non-negative value as ``width`` ASCII digits with leading zeros, one row per value."""
    quads = []
    for _ in range(-(-width // 4)):  # four digits at a time, from the right
        values, low = np.divmod(values, 10_000)
        quads.append(_QUADS[low])
    text = np.stack(quads[::-1], axis=1).view(np.uint8)
    return text[:, text.shape[1] - width:]


def write_trace(trace: Trace, stream: IO[str]) -> None:
    """Write the trace's CSV text; an id its reader would split or alter raises ValueError before any write."""
    for function_id in trace.names:  # each distinct id once, in sorted order
        _check_identifier(function_id, _ROW_SEPARATORS)
    stream.write(TRACE_HEADER + "\n")
    table = text_table([f",{name}\n" for name in trace.names], trace.stamps.max(initial=0))
    stream.writelines(format_rows([(trace.stamps, table, trace.codes)]))


def check_exponent(exponent: float) -> float:
    """``exponent`` itself when it is a finite Zipf exponent >= 0; a ValueError otherwise."""
    if not (math.isfinite(exponent) and exponent >= 0):
        raise ValueError(f"Zipf exponent must be a finite number >= 0: {exponent}")
    return exponent


def zipf_mass(n: int, exponent: float) -> np.ndarray:
    """Normalized mass table for ranks 0..n-1, p(r) proportional to (r+1)^-exponent."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_exponent(exponent)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-float(exponent))
    return weights / weights.sum()


def function_name(rank: int, num_functions: int) -> str:
    width = max(4, len(str(num_functions - 1)))
    return f"f{rank:0{width}d}"


def generate_synthetic(spec: SyntheticTraceSpec) -> Trace:
    """Generate a seeded skewed trace; identical specs yield identical traces.

    Function ranks are drawn by inverse CDF over the normalized Zipf mass
    table; arrival timestamps are uniform over [0, duration_ms) and sorted.
    Each column is held once: the ranks become id codes and are dropped
    before the stamps are drawn, and the stamps are sorted in place.
    Rank 0 (``f0000``) is the most popular function. ``function_name``
    pads every rank to one width, so the names of the drawn ranks, in rank
    order, are sorted.
    """
    rng = np.random.default_rng(spec.seed)
    cdf = np.cumsum(zipf_mass(spec.num_functions, spec.zipf_exponent))
    cdf[-1] = 1.0  # guard against cumulative rounding below 1
    ranks = np.searchsorted(cdf, rng.random(spec.num_requests), side="right")
    drawn = np.flatnonzero(np.bincount(ranks, minlength=spec.num_functions))
    code_of_rank = np.zeros(spec.num_functions, dtype=np.int32)
    code_of_rank[drawn] = np.arange(len(drawn), dtype=np.int32)  # ranks never drawn get no name
    codes = code_of_rank[ranks]
    del ranks  # before the stamps are drawn, so the two are never held together
    stamps = rng.integers(0, spec.duration_ms, size=spec.num_requests)
    stamps.sort()  # in place: np.sort would hold a second copy
    names = tuple(function_name(r, spec.num_functions) for r in drawn.tolist())
    # sorted stamps in [0, duration_ms) and non-empty names are valid by construction
    return Trace._from_valid_columns(stamps, codes, names)


def request_counts(trace: Trace) -> dict[str, int]:
    """Requests per function_id, for each id in the trace, counting ``ROW_CHUNK``
    codes at a time: ``np.bincount`` copies its input as intp."""
    counts = np.zeros(len(trace.names), dtype=np.int64)
    for start in range(0, len(trace), ROW_CHUNK):
        counts += np.bincount(trace.codes[start:start + ROW_CHUNK], minlength=len(trace.names))
    return dict(zip(trace.names, counts.tolist()))


def check_target(target: float) -> float:
    """``target`` itself when it is a request fraction in (0, 1]; a ValueError otherwise."""
    if not 0.0 < target <= 1.0:
        raise ValueError(f"threshold target must be in (0, 1]: {target}")
    return target


def popularity_cdf(trace: Trace, targets: Sequence[float] = DEFAULT_THRESHOLD_TARGETS) -> SkewSummary:
    """Rank functions by descending request count and accumulate the CDF.

    The CDF is that of the sorted counts, so the order of functions tied in
    count changes nothing. Threshold comparisons are exact (no float
    accumulation error at the boundary).
    """
    if not len(trace):
        raise ValueError("empty trace")
    for t in targets:
        check_target(t)
    counts = np.fromiter(request_counts(trace).values(), np.int64, count=len(trace.names))
    cum = np.cumsum(np.sort(counts)[::-1])
    total, n = len(trace), len(counts)
    points = zip((np.arange(1, n + 1) / n).tolist(), (cum / total).tolist())
    cum = cum.tolist()
    thresholds: dict[float, float] = {}
    for t in targets:
        # the target's decimal rendering is what the caller meant, not the nearest binary double
        # (0.8 as a double exceeds 4/5); the threshold is the first rank whose cum * den >= num * total
        num, den = Decimal(str(t)).as_integer_ratio()
        thresholds[t] = (bisect_left(cum, -(-num * total // den)) + 1) / n
    return SkewSummary(tuple(points), thresholds)


def package_name(index: int, catalog_size: int) -> str:
    width = max(4, len(str(catalog_size - 1)))
    return f"p{index:0{width}d}"


def synthesize_profiles(
    function_ids: Iterable[str],
    catalog_size: int,
    deps_per_function: tuple[int, int] = (1, 5),
    package_zipf_exponent: float = 1.0,
    seed: int = 0,
    runtime: str = "python",
    exec_duration_ms: int = 63,
) -> list[FunctionProfile]:
    """Build one profile per distinct function id, in id order.

    ``function_ids`` may repeat ids. Public traces
    carry no dependency lists, so dependencies are drawn from a synthetic
    catalog: per-function dependency counts are uniform over
    ``deps_per_function`` and packages are sampled without replacement with
    Zipf-distributed popularity. Deterministic under a fixed seed.

    Each function draws ``k = rng.integers(lo, hi + 1)``, then its packages
    by ``_package_sampler``, which makes exactly the draws of
    ``rng.choice(catalog_size, k, replace=False, p=mass)``, so the catalog
    is the one ``choice`` gives. ``choice`` is not called because it checks
    ``mass`` and accumulates its CDF again on every call; the sampler builds
    the CDF once per catalog.
    """
    distinct = sorted(set(function_ids))
    if not distinct:
        raise ValueError("no function ids to profile")
    if catalog_size < 1:
        raise ValueError("catalog_size must be >= 1")
    lo, hi = deps_per_function
    if lo < 0 or hi < lo:
        raise ValueError("deps_per_function must satisfy 0 <= lo <= hi")
    if hi > catalog_size:
        raise ValueError("dependency range upper bound exceeds catalog size")
    rng = np.random.default_rng(seed)
    draw = _package_sampler(zipf_mass(catalog_size, package_zipf_exponent))
    names = [package_name(i, catalog_size) for i in range(catalog_size)]
    profiles = []
    for function_id in distinct:
        deps = frozenset([names[i] for i in draw(rng, int(rng.integers(lo, hi + 1)))])
        profiles.append(FunctionProfile(function_id, runtime, deps, exec_duration_ms))
    return profiles


def _package_sampler(mass: np.ndarray) -> Callable[[np.random.Generator, int], list[int]]:
    """``draw(rng, k)``: ``k`` distinct indices into ``mass``, drawn as
    ``rng.choice(len(mass), k, replace=False, p=mass)`` draws them.

    A round maps one uniform per index still missing through the CDF and
    keeps the new indices in first-seen order; the next round's CDF is that
    of ``mass`` with every index found so far zeroed. Each CDF is divided
    by its last entry. ``k == 0`` draws nothing, and a ``k`` above the count
    of non-zero entries raises before drawing, as ``choice`` does.
    """
    catalog_cdf = np.cumsum(mass)
    catalog_cdf /= catalog_cdf[-1]
    drawable = int(np.count_nonzero(mass))  # entries whose mass did not underflow to zero

    def draw(rng: np.random.Generator, k: int) -> list[int]:
        if k > drawable:
            raise ValueError(
                f"too few packages have non-zero popularity at this package Zipf exponent to draw {k} "
                f"distinct dependencies: {drawable} of {len(mass)}"
            )
        found: list[int] = []
        cdf = catalog_cdf
        while len(found) < k:
            uniforms = rng.random(k - len(found))
            if found:
                left = mass.copy()
                left[found] = 0
                cdf = np.cumsum(left)
                cdf /= cdf[-1]
            for index in cdf.searchsorted(uniforms, side="right").tolist():
                if index not in found:
                    found.append(index)
        return found

    return draw


def index_profiles(profiles: Iterable[FunctionProfile]) -> dict[str, FunctionProfile]:
    """Profiles by function_id, in input order; a repeated id raises ValueError."""
    catalog: dict[str, FunctionProfile] = {}
    for p in profiles:
        if p.function_id in catalog:
            raise ValueError(f"duplicate function_id {p.function_id!r}")
        catalog[p.function_id] = p
    return catalog


def parse_profiles(stream: IO[str] | Iterable[str]) -> list[FunctionProfile]:
    """Parse a profile catalog CSV; function_ids must be unique."""
    lines = iter(stream)
    header = next(lines, None)
    if header is None:
        raise TraceParseError("line 1: missing header")
    if header.strip() != PROFILE_HEADER:
        raise TraceParseError(f"line 1: expected header {PROFILE_HEADER!r}")
    profiles = []
    seen = set()
    intern = {}.setdefault  # one string object per distinct runtime and package name
    for lineno, line in enumerate(lines, start=2):
        row = line.rstrip("\r\n")
        parts = row.split(",")
        if len(parts) != 4:
            raise TraceParseError(f"line {lineno}: expected 4 columns, got {len(parts)}")
        function_id, runtime, duration_text, deps_text = parts
        try:
            exec_duration_ms = int(duration_text)
        except ValueError:
            raise TraceParseError(f"line {lineno}: non-integer duration") from None
        if function_id in seen:
            raise TraceParseError(f"line {lineno}: duplicate function_id {function_id!r}")
        seen.add(function_id)
        deps = frozenset([intern(name, name) for name in deps_text.split(";")]) if deps_text else frozenset()
        try:
            profiles.append(FunctionProfile(function_id, intern(runtime, runtime), deps, exec_duration_ms))
        except ValueError as exc:
            raise TraceParseError(f"line {lineno}: {exc}") from None
    return profiles


def load_profiles(path) -> list[FunctionProfile]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_profiles(handle)


def write_profiles(profiles: Sequence[FunctionProfile], stream: IO[str]) -> None:
    """Write the catalog's CSV text; a name its reader would split or alter raises ValueError before any write."""
    names = dict.fromkeys(chain.from_iterable((p.function_id, p.runtime, *p.dependencies) for p in profiles))
    for name in names:  # each distinct name once, in profile order
        check_profile_name(name)
    stream.write(PROFILE_HEADER + "\n")
    stream.writelines(
        f"{p.function_id},{p.runtime},{p.exec_duration_ms},{';'.join(sorted(p.dependencies))}\n" for p in profiles
    )
