import dataclasses
import hashlib
import io
import os
import random
import re
import tracemalloc
from collections import Counter
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from coldsim import traces
from coldsim.traces import (
    TRACE_HEADER,
    FunctionProfile,
    SyntheticTraceSpec,
    Trace,
    TraceParseError,
    generate_synthetic,
    parse_profiles,
    parse_trace,
    popularity_cdf,
    request_counts,
    synthesize_profiles,
    write_profiles,
    write_trace,
    zipf_mass,
)

from reference import reference_parse_trace, reference_popularity_cdf, reference_trace_text


def trace_of(*function_ids: str) -> Trace:
    return Trace(tuple(range(len(function_ids))), function_ids)


def test_parse_sorts_stably_by_timestamp():
    text = "timestamp_ms,function_id\n5,c\n1,a\n1,b\n"
    trace = parse_trace(io.StringIO(text))
    assert list(zip(trace.stamps.tolist(), [trace.names[c] for c in trace.codes.tolist()])) == [
        (1, "a"),
        (1, "b"),
        (5, "c"),
    ]


def test_parse_header_only_is_empty_trace():
    trace = parse_trace(io.StringIO("timestamp_ms,function_id\n"))
    assert len(trace) == 0


def test_parse_missing_header():
    with pytest.raises(TraceParseError, match="line 1"):
        parse_trace(io.StringIO(""))
    with pytest.raises(TraceParseError, match="line 1"):
        parse_trace(io.StringIO("nope\n1,a\n"))


@pytest.mark.parametrize(
    "row,fragment",
    [
        ("1", "2 columns"),
        ("1,a,b", "2 columns"),
        ("x,a", "not an integer"),
        ("-1,a", ">= 0"),
        ("1,", "empty function_id"),
    ],
)
def test_parse_errors_name_the_line(row, fragment):
    text = f"timestamp_ms,function_id\n0,ok\n{row}\n"
    with pytest.raises(TraceParseError) as err:
        parse_trace(io.StringIO(text))
    assert "line 3" in str(err.value)
    assert fragment in str(err.value)


@given(
    st.lists(
        st.tuples(st.integers(0, 10**7), st.sampled_from(["a", "b", "c", "d-1", "e_2"])),
        max_size=60,
    )
)
def test_write_then_parse_is_identity(pairs):
    ordered = sorted(pairs, key=lambda p: p[0])
    trace = Trace(tuple(ts for ts, _ in ordered), tuple(fid for _, fid in ordered))
    buffer = io.StringIO()
    write_trace(trace, buffer)
    reparsed = parse_trace(io.StringIO(buffer.getvalue()))
    assert reparsed == trace


@pytest.mark.parametrize("function_id", ["a,b", "a\nb", "a\r", "\ra"])
def test_write_trace_refuses_an_id_its_reader_would_split_or_alter(function_id):
    buffer = io.StringIO()
    with pytest.raises(ValueError, match=re.escape(repr(function_id))):
        write_trace(trace_of("ok", function_id, function_id), buffer)
    assert buffer.getvalue() == ""


@pytest.mark.parametrize("char", [",", ";", "\n", "\r"], ids=["comma", "semicolon", "lf", "cr"])
@pytest.mark.parametrize("field", ["function_id", "runtime", "dependencies"])
def test_write_profiles_refuses_a_name_its_reader_would_split_or_alter(field, char):
    name = f"a{char}b"
    value = frozenset({"numpy", name}) if field == "dependencies" else name
    profile = dataclasses.replace(FunctionProfile("f", "python", frozenset({"numpy"})), **{field: value})
    buffer = io.StringIO()
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        write_profiles([FunctionProfile("ok"), profile], buffer)
    assert buffer.getvalue() == ""


def read_as_a_file(text: str) -> io.TextIOWrapper:
    """``text`` as ``open(path, "r")`` reads it back: newlines translated, ``"\r"`` included."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")


TRACE_IDS = st.text(st.characters(codec="utf-8", exclude_characters=",\n\r"), min_size=1, max_size=6)
PROFILE_NAMES = st.text(st.characters(codec="utf-8", exclude_characters=",;\n\r"), min_size=1, max_size=6)


@given(
    st.lists(TRACE_IDS, min_size=1, max_size=20),
    st.frozensets(PROFILE_NAMES, min_size=1, max_size=4),
    PROFILE_NAMES,
    st.frozensets(PROFILE_NAMES, max_size=3),
)
@example(["a;b", " a ", "a\x00", "\x85", "\u2028"], frozenset({" f "}), "py\t", frozenset({"\x0b"}))
def test_every_name_the_writers_accept_reads_back_unchanged(ids, function_ids, runtime, deps):
    trace = trace_of(*ids)
    buffer = io.StringIO()
    write_trace(trace, buffer)
    assert parse_trace(read_as_a_file(buffer.getvalue())) == trace
    profiles = [FunctionProfile(f, runtime, deps, 2) for f in sorted(function_ids)]
    buffer = io.StringIO()
    write_profiles(profiles, buffer)
    assert parse_profiles(read_as_a_file(buffer.getvalue())) == profiles


@given(
    st.lists(TRACE_IDS, min_size=1, max_size=30),
    st.integers(1, 300),
    st.integers(1, 60),
    st.integers(0, 2**16),
)
@example(["ab", "ab", "cd"], 200, 3, 0)  # far more functions than requests
def test_request_counts_match_a_counter_over_the_ids(ids, functions, requests, seed):
    copies = [(fid + "!")[:-1] for fid in ids]  # equal strings, as distinct objects
    built = trace_of(*ids, *copies)
    buffer = io.StringIO()
    write_trace(built, buffer)
    parsed = parse_trace(read_as_a_file(buffer.getvalue()))
    generated = generate_synthetic(SyntheticTraceSpec(functions, requests, 1.1, 1_000, seed))
    for trace in (built, parsed, generated):
        counts = request_counts(trace)
        assert counts == Counter(trace.names[c] for c in trace.codes.tolist())
        assert 0 not in counts.values()
        # no id that no request names
        assert sorted(trace.names) == sorted({trace.names[c] for c in trace.codes.tolist()})


EDGE_STAMPS = (0, 9, 10, 9999, 10**4, 10**8 - 1, 10**8, 10**12 - 1, 10**16, 2**63 - 1)


@given(
    st.lists(
        st.tuples(st.one_of(st.sampled_from(EDGE_STAMPS), st.integers(0, 2**63 - 1)), TRACE_IDS),
        min_size=1,
        max_size=40,
    ),
    st.sampled_from([256, 1 << 18]),
)
@example([(stamp, "a") for stamp in EDGE_STAMPS], 1 << 18)
@example([(5, "f0"), (5, "日本\x00"), (70, "x" * 200), (10**17, "\x00")], 256)  # 220-byte rows
# rows of 255, 256, 65,535 and 65,536 bytes, the widest that uint8 and uint16 columns hold and one past
@example([(0, "a"), (7, "x" * 252)], 1 << 18)
@example([(0, "a"), (7, "x" * 253)], 1 << 18)
@example([(0, "a"), (10**7, "日" * 21_841 + "xy")], 1 << 18)
@example([(0, "a"), (10**7, "日" * 21_841 + "xy\x00")], 1 << 18)
@example([(3, "x" * 300), (40, "f0"), (500, "x" * 300)], 256)  # rows wider than a piece, each written alone
def test_write_trace_matches_the_row_formatter(rows, row_bytes):
    rows.sort(key=lambda row: row[0])
    trace = Trace([stamp for stamp, _ in rows], [fid for _, fid in rows])
    want = reference_trace_text(trace)
    buffer = io.StringIO()
    # 256 bytes a piece writes a row or a few at a time
    with mock.patch.object(traces, "_ROW_BYTES", row_bytes):
        write_trace(trace, buffer)
    assert buffer.getvalue() == want


@pytest.mark.parametrize(
    "trace, text",
    [
        (Trace((), ()), ""),
        (trace_of("a", "b" * 254), "0,a\n1," + "b" * 254 + "\n"),  # a 257-byte row
    ],
    ids=["empty", "wide-row"],
)
def test_the_writer_writes_the_empty_trace_and_a_wide_row(trace, text):
    buffer = io.StringIO()
    write_trace(trace, buffer)
    assert buffer.getvalue() == reference_trace_text(trace) == TRACE_HEADER + "\n" + text


MAX_STAMP = 2**63 - 1  # the int64 column's largest value


def test_the_largest_int64_stamp_parses_and_round_trips():
    text = f"{TRACE_HEADER}\n0,a\n{MAX_STAMP},b\n"
    # 19 digits are past the canonical block's 18, so the row loop parses them
    with mock.patch.object(traces, "_parse_rows", wraps=traces._parse_rows) as row_loop:
        trace = parse_trace(io.StringIO(text))
    assert row_loop.called
    assert trace.stamps.tolist() == [0, MAX_STAMP] and trace.stamps.dtype == np.int64
    buffer = io.StringIO()
    write_trace(trace, buffer)
    assert buffer.getvalue() == text


def test_a_stamp_past_int64_is_refused():
    with pytest.raises(TraceParseError, match=f"^line 3: timestamp_ms must be <= {MAX_STAMP}$"):
        parse_trace(io.StringIO(f"{TRACE_HEADER}\n0,a\n{2**63},b\n"))
    with pytest.raises(ValueError, match=f"timestamp_ms must be <= {MAX_STAMP}"):
        Trace((0, 2**63), ("a", "b"))
    # stamps are drawn below duration_ms, so 2**63 is the longest window
    assert SyntheticTraceSpec(1, 1, 1.0, 2**63, seed=0).duration_ms == 2**63
    with pytest.raises(ValueError, match=f"duration_ms must be in 1..{2**63}"):
        SyntheticTraceSpec(1, 1, 1.0, 2**63 + 1, seed=0)


@given(st.lists(st.tuples(st.integers(0, 20), TRACE_IDS), max_size=30))
@example([(0, "b"), (1, "a")])  # first seen is not first sorted
@example([(5, "a"), (0, "b"), (5, "c"), (0, "a")])  # the sort moves the first-seen id
def test_a_trace_has_one_form(rows):
    ordered = sorted(rows, key=lambda row: row[0])  # stable, as the parse sorts
    built = Trace([ts for ts, _ in ordered], [fid for _, fid in ordered])
    body = "".join(f"{ts},{fid}\n" for ts, fid in rows)  # in file order
    numpy_parsed = parse_trace(io.StringIO(TRACE_HEADER + "\n" + body))
    row_parsed = parse_trace(io.StringIO(TRACE_HEADER + "\n" + body.replace("\n", "\r\n")))  # a CR forces the row loop
    for trace in (built, numpy_parsed, row_parsed):
        assert trace.names == tuple(sorted({fid for _, fid in rows}))
        assert np.array_equal(trace.stamps, built.stamps)
        assert np.array_equal(trace.codes, built.codes)


@pytest.mark.parametrize("functions", [1, 10, 10_000, 10_001])  # 10,001 names are one digit wider
def test_generated_names_are_sorted(functions):
    trace = generate_synthetic(SyntheticTraceSpec(functions, 20_000, 0.5, 1_000, seed=1))
    ids = [trace.names[c] for c in trace.codes.tolist()]
    assert trace.names == tuple(sorted(set(ids)))
    assert np.array_equal(trace.codes, Trace(trace.stamps.tolist(), ids).codes)


def test_parse_keeps_no_per_row_objects():
    rnd = random.Random(6)
    rows = [f"{1000 * i},fn{rnd.randrange(40)}" for i in range(50_000)]
    rnd.shuffle(rows)  # unsorted, so the parse also sorts
    text = "\n".join(["timestamp_ms,function_id", *rows]) + "\n"
    tracemalloc.start()
    try:
        trace = parse_trace(io.StringIO(text))
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(trace) == 50_000
    # an int64 timestamp and an int32 id code per row; a per-row object costs far more
    assert retained / len(trace) < 16, f"{retained / len(trace):.1f} bytes per row"
    assert len(trace.names) == 40


def parse_outcome(parse, text: str):
    """The Trace a parse returns, or the message of the TraceParseError it raises."""
    try:
        return parse(io.StringIO(text))
    except TraceParseError as exc:
        return str(exc)


HEX_IDS = st.binary(min_size=32, max_size=32).map(bytes.hex)  # hashed ids, as in Azure traces
ODD_IDS = st.sampled_from(
    ["fn-a", "f0001", "abcdefgh", "abcdefghi", "a b", " a", "a ", "é", "日本語の関数", "\ud800", "a\x00b", "a\rb", "\x00", "\x85"]
)
ANY_IDS = st.text(max_size=20)  # may hold commas, newlines, CRs, NULs, or be empty
CANONICAL_STAMPS = st.one_of(
    st.integers(0, 20).map(str),  # ties, so the sort must be stable
    st.integers(0, 10**18 - 1).map(str),
    st.integers(0, 10**6).map(lambda v: f"{v:018d}"),
)
ODD_STAMPS = st.one_of(
    st.sampled_from(["", "x", "-1", "-0", " 12", "12 ", "+12", "1_000", "\u0663", "\uff11", "1e3", "0x1f", "1:5", "9?"]),
    st.integers(10**18, 10**30).map(str),  # 19+ digits, some past int64
    st.integers(0, 10**6).map(lambda v: "0" * 18 + str(v)),
    st.integers(-(10**6), -1).map(str),
)


@st.composite
def trace_texts(draw):
    ids = draw(st.lists(st.one_of(HEX_IDS, ODD_IDS, ANY_IDS), min_size=1, max_size=6))
    canonical_row = st.builds(lambda ts, fid: f"{ts},{fid}", CANONICAL_STAMPS, st.sampled_from(ids))
    odd_row = st.one_of(
        st.builds(lambda ts, fid: f"{ts},{fid}", ODD_STAMPS, st.sampled_from(ids)),
        st.sampled_from(["", "1", ",", "1,", ",a", "1,a,b", "1,,a", "\r"]),
    )
    rows = draw(st.lists(st.one_of(canonical_row, canonical_row, canonical_row, odd_row), max_size=40))
    endings = draw(st.lists(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r\r\n"]), min_size=len(rows), max_size=len(rows)))
    body = "".join(row + end for row, end in zip(rows, endings))
    if body and draw(st.booleans()):
        body = body[:-1]  # no final newline
    header = draw(st.sampled_from([TRACE_HEADER + "\n", TRACE_HEADER + "\r\n", TRACE_HEADER, "", "ts,id\n"]))
    return header + body


H = TRACE_HEADER + "\n"


@given(trace_texts(), st.integers(1, 48))
@example(H + "1,\x00\n", 48)  # a NUL id would pack like an empty one
@example(H + "1,a\n2,a\x00\n", 48)  # and "a\x00" like "a"
@example(H + "1,a\r\n2,a\n", 48)
@example(H + "9223372036854775808,a\n9999999999999999999,b\n", 48)  # 19 digits, past int64
@example(H + "12:30,a\n", 48)  # ':' has a digit's high nibble
@example(H + "+1,a\n2,a\n3,b\n", 1)  # an id seen by the row loop, then by numpy
# ids keyed by their UTF-8 bytes sort as their code points do: an astral character, U+FFFF, U+E000 and a
# lone surrogate, first seen in reverse order, by numpy and by the row loop (a CR forces it)
@example(H + "1,\U0001F600\n2,\uffff\n3,\ue000\n4,\ud800\n5,a\ud800\n6,a\n", 48)
@example(H + "1,\U0001F600\r\n2,\uffff\r\n3,\ue000\r\n4,\ud800\r\n5,a\ud800\r\n6,a\r\n", 48)
def test_parse_matches_row_by_row_reference(text, block):
    with mock.patch.object(traces, "BLOCK", block):  # rows straddle block boundaries
        got = parse_outcome(parse_trace, text)
    want = parse_outcome(reference_parse_trace, text)
    assert got == want
    if isinstance(got, Trace):
        assert all(type(name) is str for name in got.names)  # not numpy's str_, which compares equal


def test_canonical_rows_skip_the_row_loop():
    hex_id = hashlib.sha256(b"fn").hexdigest()
    ids = ["f0001", hex_id, "日本語の関数", "abcdefgh", "abcdefghi", "a b"]
    rows = [f"{ts},{ids[ts % len(ids)]}" for ts in (5, 0, 999_999_999_999_999_999, 5, 10**17, 3, 0)]
    text = "\n".join([TRACE_HEADER, *rows])  # unsorted, no final newline
    with mock.patch.object(traces, "_parse_rows", side_effect=AssertionError("row loop")):
        got = parse_trace(io.StringIO(text))
    assert got == reference_parse_trace(io.StringIO(text))


def test_parse_sorts_many_ties_stably():
    rnd = random.Random(3)
    rows = [f"{rnd.randrange(5)},fn{i % 7}" for i in range(1_000)]
    text = "\n".join([TRACE_HEADER, *rows]) + "\n"
    assert parse_trace(io.StringIO(text)) == reference_parse_trace(io.StringIO(text))


@pytest.mark.parametrize("ids", [["a", "b", "a", "c"], [hashlib.sha256(b"%d" % i).hexdigest() for i in (1, 2, 1)]])
def test_parse_checks_that_rows_sharing_a_hash_share_an_id(ids):
    text = TRACE_HEADER + "\n" + "".join(f"{ts},{fid}\n" for ts, fid in enumerate(ids))
    with mock.patch.object(traces, "_MIX", np.uint64(0)):  # every id hashes alike
        got = parse_trace(io.StringIO(text))
    assert got == reference_parse_trace(io.StringIO(text))


def test_parse_memory_stays_bounded_when_one_id_is_very_long():
    # packing every row's id to the longest id's width would take 64 MB here
    text = TRACE_HEADER + "\n" + "1,a\n" * 4_000 + "2," + "b" * 16_000 + "\n"
    stream = io.StringIO(text)
    tracemalloc.start()
    try:
        trace = parse_trace(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace) == 4_001
    assert peak < 4 * 2**20, f"{peak / 2**20:.1f} MiB peak"


def test_parse_peak_memory_is_bounded_per_row():
    rnd = random.Random(8)
    ids = [hashlib.sha256(b"%d" % i).hexdigest() for i in range(2_000)]
    rows = [f"{1000 * i},{rnd.choice(ids)}" for i in range(100_000)]
    rnd.shuffle(rows)  # unsorted, so the parse also sorts
    text = "\n".join([TRACE_HEADER, *rows]) + "\n"
    stream = io.StringIO(text)
    tracemalloc.start()
    try:
        trace = parse_trace(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace == reference_parse_trace(io.StringIO(text))
    # the Trace itself holds 12 bytes per row; the text is 74 characters
    # per row, so holding all of it, or a whole-file array of its bytes, would exceed this
    assert peak / len(trace) < 100, f"{peak / len(trace):.1f} peak bytes per row"


def test_parse_holds_each_column_once():
    rows = 200_000
    trace = generate_synthetic(SyntheticTraceSpec(1_000, rows, 1.1, 86_400_000, seed=3))  # sorted
    buffer = io.StringIO()
    write_trace(trace, buffer)
    stream = io.StringIO(buffer.getvalue())
    with mock.patch.object(traces, "BLOCK", 4_096):  # blocks of about 300 rows
        tracemalloc.start()
        try:
            parsed = parse_trace(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert parsed == trace
    # the columns take 12 bytes per row; a second copy of either, or the codes cast to intp, would
    # take 4 or more; one remap chunk, one block and the id tables fit in the rest
    assert peak < 12 * rows + 512 * 1024, f"{peak / rows:.1f} peak bytes per row"


@pytest.mark.parametrize("count", [request_counts, popularity_cdf])
def test_counting_holds_no_copy_of_the_codes(count):
    rows = 200_000
    trace = generate_synthetic(SyntheticTraceSpec(1_000, rows, 1.1, 86_400_000, seed=3))
    count(trace)  # numpy's one-time set-up
    tracemalloc.start()
    try:
        count(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the codes cast to intp would take 8 bytes per row; one chunk of them and the per-function
    # counts and CDF fit in the rest
    assert peak < 256 * 1024, f"{peak / rows:.1f} peak bytes per row"


def test_generate_holds_each_column_once():
    generate_synthetic(SyntheticTraceSpec(1, 1, 1.1, 1, seed=0))  # the generator's one-time set-up
    rows = 200_000
    tracemalloc.start()
    try:
        trace = generate_synthetic(SyntheticTraceSpec(1_000, rows, 1.1, 86_400_000, seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace) == rows
    # the uniforms and the ranks they map to, 8 bytes per row each, are the peak; the stamps
    # are drawn once the ranks are codes, and sorted in place
    assert peak < 16 * rows + 256 * 1024, f"{peak / rows:.1f} peak bytes per row"


def test_parse_refuses_a_stream_it_cannot_read_twice():
    text = f"{TRACE_HEADER}\n0,a\n1,b\n"
    read_end, write_end = os.pipe()
    with open(write_end, "w", encoding="utf-8") as pipe:
        pipe.write(text)
    with open(read_end, "r", encoding="utf-8") as pipe, pytest.raises(TraceParseError, match="must be seekable"):
        parse_trace(pipe)

    class Changing(io.StringIO):
        """A stream whose text is replaced by ``second`` when it is sought back."""

        def __init__(self, first: str, second: str) -> None:
            super().__init__(first)
            self.second = second

        def seek(self, *args):
            self.truncate(0)
            super().seek(0)
            self.write(self.second)
            return super().seek(*args)

    for second in (text + "2,c\n", f"{TRACE_HEADER}\n0,a\n", text + "2,c"):
        with pytest.raises(TraceParseError, match="changed while it was read"):
            parse_trace(Changing(text, second))
    assert parse_trace(Changing(text, text)) == Trace((0, 1), ("a", "b"))


def test_parse_and_generate_build_traces_without_rechecking_rows():
    text = f"{TRACE_HEADER}\n7,b\n3,a\n7,a\n"
    spec = SyntheticTraceSpec(num_functions=5, num_requests=50, zipf_exponent=1.0, duration_ms=100, seed=2)
    with mock.patch.object(Trace, "__init__", side_effect=AssertionError("re-checked")):
        parsed = parse_trace(io.StringIO(text))
        generated = generate_synthetic(spec)
        with pytest.raises(AssertionError, match="re-checked"):
            Trace((1,), ("a",))  # direct construction still runs every check
    assert parsed == Trace((3, 7, 7), ("a", "b", "a"))
    assert generated == Trace(generated.stamps.tolist(), [generated.names[c] for c in generated.codes.tolist()])
    with pytest.raises(ValueError, match="sorted"):
        Trace(parsed.stamps.tolist()[::-1], [parsed.names[c] for c in parsed.codes.tolist()])


def test_unsorted_records_rejected():
    with pytest.raises(ValueError, match="sorted"):
        Trace((5, 1), ("a", "b"))


@pytest.mark.parametrize(
    "stamps,ids,fragment",
    [
        ((0, 1), ("a",), "equal lengths"),
        ((-1, 0), ("a", "b"), ">= 0"),
        ((0, 1), ("a", ""), "non-empty"),
    ],
)
def test_malformed_columns_rejected(stamps, ids, fragment):
    with pytest.raises(ValueError, match=fragment):
        Trace(stamps, ids)


def test_generate_synthetic_is_deterministic():
    spec = SyntheticTraceSpec(20, 500, 1.2, 60_000, seed=42)
    first, second = generate_synthetic(spec), generate_synthetic(spec)
    assert first == second
    out1, out2 = io.StringIO(), io.StringIO()
    write_trace(first, out1)
    write_trace(second, out2)
    assert out1.getvalue() == out2.getvalue()


def test_generate_uniform_counts_within_binomial_bounds():
    spec = SyntheticTraceSpec(10, 100_000, 0.0, 3_600_000, seed=7)
    counts = request_counts(generate_synthetic(spec))
    assert len(counts) == 10
    for count in counts.values():
        assert 9_500 <= count <= 10_500


def test_generate_zipf_top_functions_take_majority():
    spec = SyntheticTraceSpec(5266, 798_075, 1.1, 86_400_000, seed=11)
    trace = generate_synthetic(spec)
    assert len(trace) == 798_075
    counts = sorted(request_counts(trace).values(), reverse=True)
    top = int(0.05 * 5266)
    assert sum(counts[:top]) / 798_075 > 0.5


def test_generate_rejects_bad_spec():
    with pytest.raises(ValueError):
        SyntheticTraceSpec(10, 0, 1.0, 1000, seed=0)
    with pytest.raises(ValueError):
        SyntheticTraceSpec(0, 10, 1.0, 1000, seed=0)
    with pytest.raises(ValueError):
        SyntheticTraceSpec(10, 10, -0.5, 1000, seed=0)


def test_popularity_cdf_small_trace():
    summary = popularity_cdf(trace_of("A", "A", "A", "B"))
    assert summary.cdf_points == ((0.5, 0.75), (1.0, 1.0))
    # the top function (half the catalog) already covers 50% of requests
    assert summary.thresholds[0.5] == 0.5
    assert summary.thresholds[0.8] == 1.0


def test_popularity_cdf_uniform_two_functions():
    summary = popularity_cdf(trace_of("A", "B"))
    assert summary.thresholds[0.5] == 0.5
    assert summary.thresholds[0.8] == 1.0


def test_popularity_cdf_rank_ties_break_by_function_id():
    summary = popularity_cdf(trace_of("B", "A"), targets=[0.5])
    # A and B tie at one request each; A ranks first
    assert summary.cdf_points[0] == (0.5, 0.5)
    assert summary.thresholds[0.5] == 0.5


def test_popularity_cdf_empty_trace_errors():
    with pytest.raises(ValueError, match="empty trace"):
        popularity_cdf(Trace((), ()))


def test_popularity_cdf_custom_targets():
    summary = popularity_cdf(trace_of(*(["A"] * 9 + ["B"])), targets=[0.9, 0.95])
    assert summary.thresholds[0.9] == 0.5
    assert summary.thresholds[0.95] == 1.0


@given(st.lists(st.sampled_from("ABCDEF"), min_size=1, max_size=80), st.randoms())
def test_popularity_cdf_is_permutation_invariant(ids, rnd):
    baseline = popularity_cdf(trace_of(*ids))
    shuffled = list(ids)
    rnd.shuffle(shuffled)
    assert popularity_cdf(trace_of(*shuffled)) == baseline


@given(st.lists(st.sampled_from("ABCDEFGH"), min_size=1, max_size=80))
def test_popularity_cdf_shape(ids):
    summary = popularity_cdf(trace_of(*ids))
    assert summary.cdf_points[-1] == (1.0, 1.0)
    f_fracs = [f for f, _ in summary.cdf_points]
    r_fracs = [r for _, r in summary.cdf_points]
    assert f_fracs == sorted(f_fracs)
    assert r_fracs == sorted(r_fracs)
    assert summary.thresholds[0.8] >= summary.thresholds[0.5]


BOUNDARY_TARGETS = (0.1, 0.25, 0.5, 0.75, 0.8, 1.0)  # shares a short trace can hit exactly


@given(
    st.lists(st.sampled_from("ABCDEF"), min_size=1, max_size=80),
    st.lists(st.one_of(st.sampled_from(BOUNDARY_TARGETS), st.floats(0, 1, exclude_min=True)), max_size=8),
)
@example(list("AABBCCDD"), [1.0, 0.25, 0.5, 0.25, 0.75])  # every count tied; unsorted, repeated, exact targets
@example(list("AAAAB"), [0.8, 0.8000000000000002, 0.7999999999999999])  # 4/5 exactly, and its neighbours
def test_popularity_cdf_matches_brute_force_reference(ids, targets):
    summary = popularity_cdf(trace_of(*ids), targets)
    points, thresholds = reference_popularity_cdf(ids, targets)
    assert summary.cdf_points == tuple(points)
    assert summary.thresholds == thresholds


def test_higher_zipf_exponent_never_raises_coverage_threshold():
    thresholds = []
    for exponent in (0.0, 1.0, 2.0):
        spec = SyntheticTraceSpec(200, 100_000, exponent, 3_600_000, seed=3)
        summary = popularity_cdf(generate_synthetic(spec))
        thresholds.append(summary.thresholds[0.5])
    assert thresholds[0] >= thresholds[1] >= thresholds[2]


def test_synthesize_profiles_zero_range_gives_empty_deps():
    trace = trace_of("a", "b", "c")
    for profile in synthesize_profiles(trace.names, 50, deps_per_function=(0, 0), seed=1):
        assert profile.dependencies == frozenset()


def test_synthesize_profiles_deterministic():
    ids = ["a", "b", "c", "a"]  # a repeated id is profiled once
    first = synthesize_profiles(ids, 50, (1, 5), 1.0, seed=9)
    second = synthesize_profiles(ids, 50, (1, 5), 1.0, seed=9)
    assert first == second
    assert [p.function_id for p in first] == ["a", "b", "c"]


def test_synthesize_profiles_popular_package_beats_median():
    ids = [f"g{i:04d}" for i in range(1000)]
    trace = Trace(tuple(range(len(ids))), tuple(ids))
    profiles = synthesize_profiles(trace.names, 100, (1, 5), 1.0, seed=4)
    membership = Counter()
    for profile in profiles:
        membership.update(profile.dependencies)
    counts = sorted(membership.values(), reverse=True)
    assert counts[0] > counts[len(counts) // 2]


def test_synthesize_profiles_range_exceeding_catalog_errors():
    with pytest.raises(ValueError, match="catalog"):
        synthesize_profiles(trace_of("a").names, 3, deps_per_function=(1, 4))


@st.composite
def sampler_cases(draw):
    catalog = draw(st.integers(1, 300))
    return draw(st.integers(0, 2**32 - 1)), catalog, draw(st.floats(0, 4)), draw(st.integers(0, catalog))


@given(sampler_cases())
@example((0, 2, 3.0, 2))  # the second package is rarely drawn first time round
@example((5, 3, 4.0, 3))
@example((1, 300, 0.0, 300))  # uniform mass, every package
@example((2, 1, 1.0, 0))
def test_package_sampler_makes_the_draws_of_choice(case):
    seed, catalog, exponent, k = case
    mass = zipf_mass(catalog, exponent)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    assert traces._package_sampler(mass)(ours, k) == theirs.choice(catalog, k, replace=False, p=mass).tolist()
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_package_sampler_refuses_more_packages_than_have_mass():
    mass = zipf_mass(200, 2000)  # every rank past the first underflows to zero
    assert np.count_nonzero(mass) == 1
    draw = traces._package_sampler(mass)
    no_draws = mock.Mock(random=mock.Mock(side_effect=AssertionError("drew before refusing")))
    with pytest.raises(ValueError, match="too few packages have non-zero popularity .* 2 distinct dependencies: 1 of 200"):
        draw(no_draws, 2)
    assert draw(np.random.default_rng(0), 1) == [0]


@pytest.mark.parametrize("exponent", [float("nan"), float("inf"), -0.5])
def test_zipf_mass_refuses_an_exponent_that_is_not_finite_and_non_negative(exponent):
    with pytest.raises(ValueError, match="Zipf exponent must be a finite number >= 0"):
        zipf_mass(10, exponent)
    with pytest.raises(ValueError, match="Zipf exponent must be a finite number >= 0"):
        SyntheticTraceSpec(10, 10, exponent, 1000, seed=0)


def test_profile_names_are_checked_once_each_in_profile_order():
    profiles = [FunctionProfile(f"f{i}", "python", frozenset({"numpy", "scipy"})) for i in range(50)]
    with mock.patch.object(traces, "_check_identifier", wraps=traces._check_identifier) as check:
        write_profiles(profiles, io.StringIO())
    checked = [call.args[0] for call in check.call_args_list]
    assert sorted(checked) == sorted({"python", "numpy", "scipy", *(p.function_id for p in profiles)})
    assert checked[:2] == ["f0", "python"]
    # "py;thon" comes first in profile order, "b,c" first in sorted order
    refused = [FunctionProfile("a", "py;thon"), FunctionProfile("b,c", "py;thon")]
    with pytest.raises(ValueError, match=re.escape(repr("py;thon"))):
        write_profiles(refused, io.StringIO())


def test_profiles_csv_roundtrip():
    trace = trace_of("a", "b")
    profiles = synthesize_profiles(trace.names, 30, (0, 3), 1.0, seed=2)
    buffer = io.StringIO()
    write_profiles(profiles, buffer)
    assert parse_profiles(io.StringIO(buffer.getvalue())) == profiles


def test_parse_profiles_rejects_duplicates_and_bad_rows():
    header = "function_id,runtime,exec_duration_ms,dependencies\n"
    with pytest.raises(TraceParseError, match="duplicate"):
        parse_profiles(io.StringIO(header + "a,python,1,\na,python,1,\n"))
    with pytest.raises(TraceParseError, match="line 2"):
        parse_profiles(io.StringIO(header + "a,python,x,\n"))
    with pytest.raises(TraceParseError, match="4 columns"):
        parse_profiles(io.StringIO(header + "a,python,1\n"))


def test_parse_profiles_empty_deps_column():
    header = "function_id,runtime,exec_duration_ms,dependencies\n"
    profiles = parse_profiles(io.StringIO(header + "a,python,20,\nb,nodejs,2,x;y\n"))
    assert profiles[0].dependencies == frozenset()
    assert profiles[1].dependencies == frozenset({"x", "y"})
    assert profiles[1].runtime == "nodejs"


def test_parse_profiles_keeps_one_string_per_runtime_and_package():
    header = "function_id,runtime,exec_duration_ms,dependencies\n"
    runtimes = ("nodejs", "python")
    rows = [f"f{i},{runtimes[i % 2]},1,{';'.join(f'p{k}' for k in range(i % 4 + 1))}\n" for i in range(40)]
    profiles = parse_profiles(io.StringIO(header + "".join(rows)))
    shared = {}
    for name in chain.from_iterable((p.runtime, *p.dependencies) for p in profiles):
        assert shared.setdefault(name, name) is name
    assert sorted(shared) == ["nodejs", "p0", "p1", "p2", "p3", "python"]
    assert not hasattr(profiles[0], "__dict__")  # a profile holds its four fields in slots


@pytest.mark.parametrize("deps_text", ["numpy;", ";numpy", "a;;b", ";"])
def test_parse_profiles_rejects_empty_dependency_names(deps_text):
    header = "function_id,runtime,exec_duration_ms,dependencies\n"
    with pytest.raises(TraceParseError, match="line 3: dependency names must be non-empty"):
        parse_profiles(io.StringIO(header + "a,python,1,x\n" + f"b,python,1,{deps_text}\n"))


@pytest.mark.parametrize("deps", [{""}, {"", "x"}])
def test_profile_with_an_empty_dependency_name_is_rejected(deps):
    # write_profiles would write {""} as an empty column, which reads back as
    # no dependencies, and {"", "x"} as "x;" or ";x"
    with pytest.raises(ValueError, match="dependency names must be non-empty"):
        FunctionProfile("a", dependencies=frozenset(deps))
