import dataclasses
import io
import json
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ceqn import data_io
from ceqn.data_io import (
    ConfigError,
    Dataset,
    LibsvmParseError,
    TRACE_HEADER,
    load_config,
    parse_libsvm,
    read_trace_csv,
    resolve_dataset_path,
    validate_spec,
    write_summary_json,
    write_trace_csv,
)
from ceqn.driver import RunResult, SolverConfig, TraceRecord, run_solver
from ceqn.hessian import ApproxConfig
from ceqn.problems import tridiagonal_quadratic
from ceqn.steps import CeqnParams

from conftest import FIXTURE_D, FIXTURE_LIBSVM, FIXTURE_N, FIXTURE_NNZ


class TestParseLibsvm:
    def test_basic_line(self):
        ds = parse_libsvm(io.StringIO("+1 1:0.5 3:2.0\n"))
        assert ds.labels.tolist() == [1.0]
        assert ds.d == 3
        row = ds.design.getrow(0)
        assert dict(zip(row.indices.tolist(), row.data.tolist())) == {0: 0.5, 2: 2.0}

    def test_zero_one_label_file_maps_zero_to_minus_one(self):
        ds = parse_libsvm(io.StringIO("0 2:1.0\n1 1:1.0\n"))
        assert ds.labels.tolist() == [-1.0, 1.0]

    def test_one_two_label_file_maps_two_to_minus_one(self):
        ds = parse_libsvm(io.StringIO("1 1:1.0\n2 2:1.0\n"))
        assert ds.labels.tolist() == [1.0, -1.0]

    def test_plus_minus_labels_untouched(self):
        ds = parse_libsvm(io.StringIO("-1 1:1.0\n+1 2:1.0\n"))
        assert ds.labels.tolist() == [-1.0, 1.0]

    def test_comments_and_blank_lines_skipped(self):
        text = "# header comment\n\n+1 1:1.0  # trailing comment\n\n-1 2:3.0\n"
        ds = parse_libsvm(io.StringIO(text))
        assert ds.n == 2

    def test_non_numeric_label_reports_line(self):
        with pytest.raises(LibsvmParseError) as excinfo:
            parse_libsvm(io.StringIO("+1 1:1.0\nfoo 1:1.0\n"))
        assert excinfo.value.line_no == 2

    def test_non_increasing_indices_rejected(self):
        with pytest.raises(LibsvmParseError, match="strictly increasing"):
            parse_libsvm(io.StringIO("+1 3:1.0 2:1.0\n"))
        with pytest.raises(LibsvmParseError, match="strictly increasing"):
            parse_libsvm(io.StringIO("+1 2:1.0 2:2.0\n"))

    def test_malformed_feature_token(self):
        with pytest.raises(LibsvmParseError, match="lacks ':'"):
            parse_libsvm(io.StringIO("+1 12\n"))
        with pytest.raises(LibsvmParseError, match="non-numeric"):
            parse_libsvm(io.StringIO("+1 a:1.0\n"))

    def test_unmappable_label_set_rejected(self):
        with pytest.raises(LibsvmParseError, match="label"):
            parse_libsvm(io.StringIO("3 1:1.0\n"))
        with pytest.raises(LibsvmParseError, match="cannot be mapped"):
            parse_libsvm(io.StringIO("0 1:1.0\n2 2:1.0\n"))

    def test_empty_input_rejected(self):
        with pytest.raises(LibsvmParseError, match="no samples"):
            parse_libsvm(io.StringIO("# nothing here\n"))

    def test_pinned_dimension(self):
        ds = parse_libsvm(io.StringIO("+1 1:1.0\n-1 2:1.0\n"), dimension=10)
        assert ds.d == 10
        with pytest.raises(LibsvmParseError, match="exceeds pinned"):
            parse_libsvm(io.StringIO("+1 11:1.0\n"), dimension=10)

    def test_index_beyond_pinned_dimension_reports_its_line(self, monkeypatch):
        # 8-byte blocks hold two of these 7- and 8-byte lines: the input spans
        # six blocks
        monkeypatch.setattr(data_io, "_BLOCK_BYTES", 8)
        lines = ["+1 1:1\n", "+1 11:1\n"] + ["-1 2:1\n"] * 10
        read = []

        def stream():
            for line in lines:
                read.append(line)
                yield line

        with pytest.raises(LibsvmParseError, match="exceeds pinned") as excinfo:
            parse_libsvm(stream(), dimension=10)
        assert excinfo.value.line_no == 2
        assert str(excinfo.value).startswith("line 2: feature index 11 exceeds")
        # reading stops within one block past the offending line, where a
        # parser that reads the whole input first would have read all 12
        assert len(read) <= 2 + 2

    def test_fixture_shape_matches_committed_triple(self):
        ds = parse_libsvm(FIXTURE_LIBSVM)
        assert (ds.n, ds.d, ds.nnz) == (FIXTURE_N, FIXTURE_D, FIXTURE_NNZ)

    def test_index_beyond_int64_reports_line(self):
        with pytest.raises(LibsvmParseError, match="int64") as excinfo:
            parse_libsvm(io.StringIO("+1 1:1.0\n+1 2:1 99999999999999999999:1\n"))
        assert excinfo.value.line_no == 2

    def test_index_at_or_above_2_pow_53_reports_line(self):
        # 2^53 + 1 is the first integer float64 cannot hold; it would round to 2^53
        for index in (2**53 + 1, 2**53):
            with pytest.raises(LibsvmParseError, match="2\\^53") as excinfo:
                parse_libsvm(io.StringIO(f"+1 1:1.0\n+1 2:1 {index}:1\n-1 3:1\n"))
            assert excinfo.value.line_no == 2
        ds = parse_libsvm(io.StringIO(f"+1 1:1.0 {2**53 - 1}:2\n"))
        assert ds.d == 2**53 - 1
        assert ds.design.indices.tolist() == [0, 2**53 - 2]

    @pytest.mark.parametrize("text, dimension", [
        ("+1 1:1 2147483647:2\n", None),  # every stored value fits int32
        ("+1 1:1 2147483648:2\n", None),  # the columns fit int32, the width not
        ("+1 1:1 2147483649:2\n-1 3:1\n", None),
        ("+1 1:1\n-1 3:1\n", 2**31 + 7),
    ])
    def test_index_dtypes_around_int32_equal_the_line_loop(self, text, dimension):
        got = parse_outcome(parse_libsvm, io.StringIO(text), dimension=dimension)
        assert got == parse_outcome(line_loop_reference, io.StringIO(text), dimension=dimension)
        assert got[0] == "ok"

    @pytest.mark.parametrize("line", [
        "+1 1_0:2",  # int() reads '_' between digits
        "+1 1:1_0",
        "+1 \u0661:2",  # an Arabic-Indic digit one
        "+1 1:\u0662",
        "+1 +3:1",  # int() reads a sign
        "+1 1:1\u00a02:1",  # a no-break space between tokens
        "+1 1:1\x0c2:1",
        "+1 1:1\x0b",
    ])
    def test_spellings_outside_the_ascii_grammar_report_line(self, line):
        with pytest.raises(LibsvmParseError) as excinfo:
            parse_libsvm(io.StringIO(f"-1 1:1\n{line}\n+1 2:1\n"))
        assert excinfo.value.line_no == 2

    def test_bytes_that_are_not_utf8_report_line_outside_comments(self, tmp_path):
        path = tmp_path / "latin1.libsvm"
        path.write_bytes(b"+1 1:1 # caf\xe9\n-1 2:1\n")
        assert parse_libsvm(path).n == 2
        path.write_bytes(b"+1 1:1\n-1 2:1\xe9\n")
        with pytest.raises(LibsvmParseError) as excinfo:
            parse_libsvm(path)
        assert excinfo.value.line_no == 2

    def test_peak_allocation_per_stored_entry_is_bounded(self, monkeypatch):
        rng = np.random.default_rng(11)
        lines = []
        for _ in range(2000):
            cols = np.sort(rng.choice(2000, size=10, replace=False)) + 1
            values = rng.standard_normal(10).tolist()
            lines.append(" ".join(["+1"] + [f"{c}:{v!r}" for c, v in zip(cols, values)]) + "\n")
        # 20 kB blocks: the input is about 50 of them
        monkeypatch.setattr(data_io, "_BLOCK_BYTES", 20_000)
        already = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            ds = parse_libsvm(lines)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not already:
                tracemalloc.stop()
        assert ds.nnz == 20_000
        # the token-by-token line loop peaked at 96 bytes per entry here, this
        # parser at 28 with int64 index blocks and at 24 with int32 ones
        assert peak / ds.nnz < 25

    def test_csr_arrays_equal_coo_construction(self):
        rng = np.random.default_rng(7)
        lines = ["# generated", ""]
        for _ in range(40):
            cols = np.sort(rng.choice(30, size=int(rng.integers(0, 8)), replace=False))
            # explicit zeros are stored entries, as in the file
            vals = np.where(rng.random(cols.size) < 0.2, 0.0, rng.normal(size=cols.size))
            tokens = [f"{c + 1}:{float(v)!r}" for c, v in zip(cols, vals)]
            lines.append(" ".join([str(int(rng.choice([-1, 1])))] + tokens))
        text = "\n".join(lines) + "\n"
        cases = [
            (FIXTURE_LIBSVM.read_text(), None),
            (text, None),
            (text, 40),
            ("+1 1:0 3:0.0\n-1\n+1 2:1\n", None),
        ]
        for text, dimension in cases:
            got = parse_libsvm(io.StringIO(text), dimension=dimension).design
            expected = coo_reference(text, dimension)
            for name in ("data", "indices", "indptr"):
                a, b = getattr(got, name), getattr(expected, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
            assert got.shape == expected.shape


def line_loop_reference(stream, dimension=None, name=""):
    """The token-by-token line loop that parsed LIBSVM before block parsing."""
    if isinstance(stream, (str, Path)):
        with open(stream, "r", encoding="utf-8") as fh:
            return line_loop_reference(fh, dimension=dimension, name=name or Path(stream).name)
    source = getattr(stream, "name", "<memory>")

    raw_labels: list[float] = []
    row_nnz: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    max_index = 0
    for line_no, line in enumerate(stream, start=1):
        hash_pos = line.find("#")
        if hash_pos >= 0:
            line = line[:hash_pos]
        tokens = line.split()
        if not tokens:
            continue
        try:
            label = float(tokens[0])
        except ValueError:
            raise LibsvmParseError(line_no, f"non-numeric label {tokens[0]!r}") from None
        if label not in (-1.0, 0.0, 1.0, 2.0):
            raise LibsvmParseError(
                line_no, f"label {tokens[0]!r} is not one of -1, 0, 1, 2"
            )
        raw_labels.append(label)
        prev_index = 0
        for token in tokens[1:]:
            idx_text, sep, val_text = token.partition(":")
            if not sep:
                raise LibsvmParseError(line_no, f"feature token {token!r} lacks ':'")
            try:
                index = int(idx_text)
                value = float(val_text)
            except ValueError:
                raise LibsvmParseError(
                    line_no, f"non-numeric feature token {token!r}"
                ) from None
            if index <= prev_index:
                raise LibsvmParseError(
                    line_no,
                    f"index {index} not strictly increasing after {prev_index}",
                )
            if not math.isfinite(value):
                raise LibsvmParseError(line_no, f"non-finite value in {token!r}")
            prev_index = index
            cols.append(index - 1)
            vals.append(value)
        if prev_index > np.iinfo(np.int64).max:
            raise LibsvmParseError(
                line_no, f"feature index {prev_index} does not fit in int64"
            )
        if dimension is not None and prev_index > dimension:
            raise LibsvmParseError(
                line_no, f"feature index {prev_index} exceeds pinned dimension {dimension}"
            )
        row_nnz.append(len(tokens) - 1)
        max_index = max(max_index, prev_index)
    if not raw_labels:
        raise LibsvmParseError(0, "no samples found")

    label_set = set(raw_labels)
    if label_set <= {-1.0, 1.0}:
        labels = np.asarray(raw_labels)
    elif label_set == {0.0, 1.0}:
        labels = np.where(np.asarray(raw_labels) == 0.0, -1.0, 1.0)
    elif label_set == {1.0, 2.0}:
        labels = np.where(np.asarray(raw_labels) == 2.0, -1.0, 1.0)
    else:
        raise LibsvmParseError(
            0, f"label set {sorted(label_set)} cannot be mapped to -1/+1"
        )

    d = max_index if dimension is None else dimension
    indptr = np.zeros(len(row_nnz) + 1, dtype=np.int64)
    np.cumsum(row_nnz, out=indptr[1:])
    design = sp.csr_matrix(
        (np.array(vals, dtype=np.float64), np.array(cols, dtype=np.int64), indptr),
        shape=(len(raw_labels), d),
    )
    return Dataset(design=design, labels=labels, name=name, source=str(source))


def parse_outcome(parse, *args, **kwargs):
    """Every CSR array and the labels as (dtype, bytes), or the error's line."""
    try:
        ds = parse(*args, **kwargs)
    except LibsvmParseError as exc:
        return ("error", exc.line_no)
    arrays = (ds.design.data, ds.design.indices, ds.design.indptr, ds.labels)
    return ("ok", ds.design.shape, [(a.dtype.str, a.tobytes()) for a in arrays])


# labels that map together, and all of them, which mostly do not
LABEL_SETS = [
    ["+1", "-1", "1.0"],
    ["0", "1", "1.0"],
    ["1", "2", "1.0"],
    ["+1", "-1", "0", "1", "2", "1.0"],
]
VALUE_TEXT = st.one_of(
    st.sampled_from(
        ["1e-05", "1E+3", ".5", "5.", "-0.0", "0", "5e-324", "-4.9e-324", "1e-310", "+2"]
    ),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:g}"),
)
# tokens the line loop rejects in a label's or a feature's place; the last
# features only where they follow a higher index
BAD_LABELS = ["1:1", "nan", "inf", "0x1p3", "\u00e9", "3", "-2", "1e999", "+"]
BAD_FEATURES = [
    "2:3:4", "5:", ":5", "3.0:1", "1e1:3", "1:nan", "1:inf", "1:-inf", "1:0x1p3",
    "1:\u00e9", "\u00e9:1", "0:1", "-1:1", "1:1e999", "12", "1::2", "a:1", "1:1-1", "1:1.5.5",
    "1:1", "5:2", "1 :2", "1: 2",
]


@st.composite
def libsvm_text_lines(draw):
    """LIBSVM lines with mixed spellings, blanks, comments and a few bad tokens."""
    labels = draw(st.sampled_from(LABEL_SETS))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "comment"]))
        if kind == "blank":
            line = draw(st.sampled_from(["", " ", "\t", " \t "]))
        elif kind == "comment":
            line = draw(st.sampled_from(["# a comment", "#", "  # 1:2 x\u00e9"]))
        else:
            cols = sorted(draw(st.sets(st.integers(1, 22), max_size=5)))
            tokens = [draw(st.sampled_from(labels))]
            tokens += [f"{c}:{draw(VALUE_TEXT)}" for c in cols]
            if draw(st.integers(0, 15)) == 0:
                at = draw(st.integers(0, len(tokens)))
                bad = draw(st.sampled_from(BAD_LABELS if at == 0 else BAD_FEATURES))
                tokens[at:at + 1] = [bad]
            seps = [draw(st.sampled_from([" ", "\t", "  ", " \t"])) for _ in tokens]
            line = "".join(t + s for t, s in zip(tokens, seps))
            if not draw(st.booleans()):
                line = line.rstrip(" \t")
            if draw(st.integers(0, 4)) == 0:
                line += draw(st.sampled_from(["# trailing", " # 3:4", "#\u00e9"]))
        lines.append(line + draw(st.sampled_from(["\n", "\n", "\r\n"])))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return lines


class TestBlockParserAgainstLineLoop:
    @settings(max_examples=400)
    @given(
        libsvm_text_lines(),
        st.sampled_from([None, 20, 30]),
        st.sampled_from([1, 9, 40, 1 << 20]),
        st.sampled_from(["list", "stream", "path"]),
    )
    def test_same_arrays_or_same_error_line(self, lines, dimension, block_bytes, form):
        with mock.patch.object(data_io, "_BLOCK_BYTES", block_bytes):
            if form == "path":
                with tempfile.TemporaryDirectory() as tmp:
                    path = Path(tmp) / "in.libsvm"
                    path.write_bytes("".join(lines).encode("utf-8"))
                    got = parse_outcome(parse_libsvm, path, dimension=dimension)
                    expected = parse_outcome(line_loop_reference, path, dimension=dimension)
            else:
                make = list if form == "list" else lambda ls: io.StringIO("".join(ls))
                got = parse_outcome(parse_libsvm, make(lines), dimension=dimension)
                expected = parse_outcome(line_loop_reference, make(lines), dimension=dimension)
        assert got == expected

    @pytest.mark.parametrize("row", [f"{bad} 2:1" for bad in BAD_LABELS] + [
        template.format(bad)
        for bad in BAD_FEATURES
        for template in ("+1 {}", "+1 {} 25:1", "+1 5:1 {}")
    ])
    def test_each_bad_token_gives_the_line_loops_outcome(self, row):
        lines = ["+1 1:1\n", "# comment\n", f"{row}\n", "-1 3:1\n", "+1 4:0.5\n"]
        expected = parse_outcome(line_loop_reference, list(lines))
        for block_bytes in (1, 9, 1 << 20):
            with mock.patch.object(data_io, "_BLOCK_BYTES", block_bytes):
                assert parse_outcome(parse_libsvm, list(lines)) == expected


def coo_reference(text, dimension):
    """CSR built from (row, col, value) triplets through COO, for clean input."""
    rows, cols, vals = [], [], []
    n = max_index = 0
    for line in text.splitlines():
        tokens = line.split("#")[0].split()
        if not tokens:
            continue
        for token in tokens[1:]:
            index, value = token.split(":")
            rows.append(n)
            cols.append(int(index) - 1)
            vals.append(float(value))
            max_index = max(max_index, int(index))
        n += 1
    shape = (n, dimension or max_index)
    return sp.csr_matrix((vals, (rows, cols)), shape=shape, dtype=np.float64)


def small_run_result(n_records=3):
    config = SolverConfig(
        engine=CeqnParams(theta=1.0, cubic=0.0),
        approx=ApproxConfig(kind="EXACT"),
        max_iters=10,
    )
    trace = [
        TraceRecord(
            iter=k,
            wall_seconds=0.001 * (k + 1),
            f=1.0 / (k + 1),
            grad_norm_sq=10.0 ** (-k - 1),
            grad_dual_norm=0.1 * k + 1e-17,
            eta=2.0 / 3.0,
            alpha=0.5**k,
            inner_count=k,
            skipped_pairs=0,
            fallback=bool(k % 2),
            n_value=k + 1,
            n_grad=k + 1,
            n_hvp=3 * (k + 1),
        )
        for k in range(n_records)
    ]
    return RunResult(
        trace=trace,
        termination="MAX_ITERS",
        x_final=np.zeros(3),
        f_final=trace[-1].f if trace else 1.0,
        grad_norm_sq_final=1e-5,
        config=config,
        seed=0,
        wall_seconds=0.01,
        n_value=n_records,
        n_grad=n_records,
        n_hvp=3 * n_records,
    )


class TestTraceCsv:
    def test_header_is_verbatim(self):
        sink = io.StringIO()
        write_trace_csv(small_run_result(0), sink)
        assert sink.getvalue() == TRACE_HEADER + "\n"

    def test_three_records_make_four_lines(self):
        sink = io.StringIO()
        write_trace_csv(small_run_result(3), sink)
        assert len(sink.getvalue().splitlines()) == 4

    def test_round_trip_is_exact(self):
        result = small_run_result(5)
        sink = io.StringIO()
        write_trace_csv(result, sink)
        back = read_trace_csv(io.StringIO(sink.getvalue()))
        assert back == result.trace

    def test_round_trip_through_file(self, tmp_path):
        result = small_run_result(4)
        path = tmp_path / "trace.csv"
        write_trace_csv(result, path)
        assert read_trace_csv(path) == result.trace

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            read_trace_csv(io.StringIO("iter,f\n"))

    def test_header_text_is_pinned(self):
        # the columns are TraceRecord's fields in declaration order
        assert TRACE_HEADER == (
            "iter,wall_seconds,f,grad_norm_sq,grad_dual_norm,eta,alpha,"
            "inner_count,skipped_pairs,fallback,n_value,n_grad,n_hvp"
        )

    @pytest.mark.parametrize("edit", [
        lambda row: row.rsplit(",", 1)[0],  # a field missing
        lambda row: row + ",7",  # a field extra
    ], ids=["missing-field", "extra-field"])
    def test_row_with_wrong_field_count_names_its_line(self, edit):
        sink = io.StringIO()
        write_trace_csv(small_run_result(3), sink)
        header, first, second, third = sink.getvalue().splitlines()
        # the blank line counts: the bad row is line 4 of the file
        text = "\n".join([header, first, "", edit(second), third]) + "\n"
        with pytest.raises(ValueError, match="line 4: 1[24] fields, expected 13"):
            read_trace_csv(io.StringIO(text))

    @pytest.mark.parametrize("column, bad", [("f", "x"), ("fallback", "7")])
    def test_value_that_does_not_parse_names_its_line(self, column, bad):
        sink = io.StringIO()
        write_trace_csv(small_run_result(3), sink)
        header, *rows = sink.getvalue().splitlines()
        at = header.split(",").index(column)
        fields = rows[1].split(",")
        fields[at] = bad
        rows[1] = ",".join(fields)
        text = "\n".join([header, *rows]) + "\n"
        with pytest.raises(ValueError, match=f"line 3: column '{column}'"):
            read_trace_csv(io.StringIO(text))


# finite floats, with both zeros and subnormals drawn often
EXACT_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -1e-310]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def float_bits(records):
    """Every field of every record, floats as their bytes."""
    return [
        tuple(
            np.float64(v).tobytes() if isinstance(v, float) else (type(v), v)
            for v in dataclasses.astuple(rec)
        )
        for rec in records
    ]


class TestRoundTripProperties:
    @given(st.lists(
        st.builds(
            TraceRecord,
            iter=st.integers(0, 10**6),
            wall_seconds=EXACT_FLOATS,
            f=EXACT_FLOATS,
            grad_norm_sq=EXACT_FLOATS,
            grad_dual_norm=EXACT_FLOATS,
            eta=EXACT_FLOATS,
            alpha=EXACT_FLOATS,
            inner_count=st.integers(0, 100),
            skipped_pairs=st.integers(0, 100),
            fallback=st.booleans(),
            n_value=st.integers(0, 10**9),
            n_grad=st.integers(0, 10**9),
            n_hvp=st.integers(0, 10**9),
        ),
        max_size=5,
    ))
    def test_trace_csv_round_trip_keeps_every_bit(self, records):
        result = dataclasses.replace(small_run_result(0), trace=records)
        sink = io.StringIO()
        write_trace_csv(result, sink)
        assert float_bits(read_trace_csv(io.StringIO(sink.getvalue()))) == float_bits(records)

    @given(st.data())
    def test_libsvm_written_with_repr_parses_back(self, data):
        n, d = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 15))
        labels = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
        lines, vals, cols, indptr = [], [], [], [0]
        for label in labels:
            row = data.draw(st.lists(st.integers(0, d - 1), unique=True, max_size=d))
            row.sort()
            row_vals = [data.draw(EXACT_FLOATS) for _ in row]
            lines.append(f"{label:+.0f} " + " ".join(f"{j + 1}:{v!r}" for j, v in zip(row, row_vals)))
            cols += row
            vals += row_vals
            indptr.append(len(cols))
        ds = parse_libsvm(io.StringIO("\n".join(lines) + "\n"), dimension=d)
        assert ds.design.shape == (n, d)
        assert ds.design.data.tobytes() == np.array(vals, dtype=np.float64).tobytes()
        assert ds.design.indices.tolist() == cols
        assert ds.design.indptr.tolist() == indptr
        assert ds.labels.tolist() == labels


class TestSummaryJson:
    def test_quadratic_one_step_summary(self, tmp_path):
        spec = validate_spec({
            "method": "CEQN",
            "problem": "quadratic",
            "dimension": 3,
            "approx_kind": "EXACT",
            "theta": 1.0,
            "cubic": 0.0,
            "max_iters": 50,
        })
        result = run_solver(tridiagonal_quadratic(3), spec.to_solver_config())
        path = tmp_path / "summary.json"
        write_summary_json(result, path, spec.values, {"name": "quadratic-3"})
        data = json.loads(path.read_text())
        assert data["termination"] == "GRAD_TOL"
        assert data["iterations"] == 1
        assert data["config"]["method"] == "CEQN"
        assert validate_spec(data["config"]).values == spec.values
        assert data["dataset"]["name"] == "quadratic-3"
        assert data["evaluations"]["n_value"] == result.n_value


class TestConfig:
    def test_minimal_fixed_config_loads(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "method": "FIXED",
            "cubic": 1.0,
            "dataset": str(FIXTURE_LIBSVM),
        }))
        spec = load_config(path)
        assert spec["method"] == "FIXED"
        config = spec.to_solver_config()
        assert config.engine == 1.0

    def test_misspelled_key_is_named(self):
        with pytest.raises(ConfigError, match="gama_inc"):
            validate_spec({"method": "FIXED", "cubic": 1.0, "gama_inc": 2.0})

    def test_wrong_type_is_named(self):
        with pytest.raises(ConfigError, match="'memory'"):
            validate_spec({"method": "FIXED", "cubic": 1.0, "memory": "ten"})

    def test_missing_method(self):
        with pytest.raises(ConfigError, match="method"):
            validate_spec({"cubic": 1.0})

    def test_missing_cubic_for_fixed(self):
        with pytest.raises(ConfigError, match="cubic"):
            validate_spec({"method": "FIXED", "dataset": "x.libsvm"})

    def test_missing_dataset_for_logistic(self):
        with pytest.raises(ConfigError, match="dataset"):
            validate_spec({"method": "FIXED", "cubic": 1.0})

    def test_engine_validation_surfaces(self):
        with pytest.raises(ConfigError, match="gamma_inc"):
            validate_spec({
                "method": "ADAPTIVE_REG",
                "cubic": 1.0,
                "dataset": "x",
                "gamma_inc": 0.5,
            })

    def test_quadratic_problem_config(self):
        spec = validate_spec({
            "method": "CEQN",
            "problem": "quadratic",
            "dimension": 3,
            "approx_kind": "EXACT",
            "theta": 1.0,
        })
        problem, info = spec.load_problem()
        assert problem.dimension == 3
        assert info["name"] == "quadratic-3"

    def test_overrides_respect_schema(self):
        spec = validate_spec({"method": "FIXED", "cubic": 1.0, "dataset": "x"})
        with pytest.raises(ConfigError, match="not_a_key"):
            spec.with_overrides({"not_a_key": 1})
        bumped = spec.with_overrides({"seed": 7})
        assert bumped["seed"] == 7

    def test_non_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)


class TestDataDirEnv:
    def test_relative_path_uses_env_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv("CEQN_DATA_DIR", str(tmp_path))
        assert resolve_dataset_path("a9a") == tmp_path / "a9a"

    def test_absolute_path_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("CEQN_DATA_DIR", str(tmp_path))
        assert resolve_dataset_path("/abs/a9a") == resolve_dataset_path("/abs/a9a")
        assert str(resolve_dataset_path("/abs/a9a")) == "/abs/a9a"

    def test_no_env_keeps_relative(self, monkeypatch):
        monkeypatch.delenv("CEQN_DATA_DIR", raising=False)
        assert str(resolve_dataset_path("data/a9a")) == "data/a9a"

    def test_end_to_end_loading(self, monkeypatch):
        monkeypatch.setenv("CEQN_DATA_DIR", str(FIXTURE_LIBSVM.parent))
        spec = validate_spec({
            "method": "FIXED",
            "cubic": 10.0,
            "dataset": FIXTURE_LIBSVM.name,
        })
        problem, info = spec.load_problem()
        assert problem.dimension == FIXTURE_D
        assert info["nnz"] == FIXTURE_NNZ
