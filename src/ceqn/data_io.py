"""LIBSVM parsing, run configuration, and trace/summary artifacts.

The LIBSVM reader accepts ``<label> <idx>:<value> ...`` lines with 1-based
strictly increasing indices, ``#`` comments, and blank lines; labels are
remapped to {-1, +1} ({0,1} and {1,2} label sets are recognized). Numbers are
ASCII decimals separated by spaces, tabs or a carriage return; an index is
unsigned digits below 2^53. The reader parses one block of whole lines, about
1 MB, at a time with numpy. A block that fails a check is run through the
per-line checker, which raises the first error with its line number, so the
reading stops within one block past a bad line and memory beyond the result
is bounded by the block.

Traces are written as CSV, one column per ``TraceRecord`` field in declaration
order, with shortest-round-trip float text so a read-back recovers every
numeric field exactly. Run configurations are flat JSON documents validated
key by key.
"""

from __future__ import annotations

import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, NoReturn, get_type_hints

import numpy as np
import scipy.sparse as sp

from .driver import RunResult, SolverConfig, TraceRecord
from .hessian import ApproxConfig
from .problems import LogisticProblem, QuadraticProblem, tridiagonal_quadratic
from .steps import MODE_DUAL, MODE_REG, AdaptiveParams, CeqnParams

DATA_DIR_ENV = "CEQN_DATA_DIR"

# LIBSVM text is parsed in blocks of whole lines of about this many bytes.
# On a 25 MB file, 1 MB blocks parsed as fast as 4 MB ones and lowered a
# fresh process's peak RSS by 26 MB: the per-byte temporaries are a few
# times the block.
_BLOCK_BYTES = 1 << 20

_MAX_INDEX = np.iinfo(np.int64).max
# indices pass through float64, which holds every integer below 2^53 exactly
_MAX_EXACT_INDEX = 2**53 - 1
# scipy stores CSR indices and offsets as int32 when every value fits, so
# arrays built as int32 then reach the matrix without a copy
_MAX_INT32 = np.iinfo(np.int32).max

# outside comments a line holds ASCII decimal numbers, colons and these
# separators; the newline ends it
_SEPARATORS = " \t\r"
_ALLOWED_CHARS = frozenset(_SEPARATORS + "0123456789+-.eE:")
_ALLOWED_BYTES = "".join(sorted(_ALLOWED_CHARS)).encode("ascii") + b"\n"


def _parse_flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"flag {text!r} is not 0 or 1")
    return text == "1"


# a trace column is read back by the parser of its TraceRecord field's type
_FIELD_PARSERS = {int: int, float: float, bool: _parse_flag}
_TRACE_COLUMNS = tuple(f.name for f in fields(TraceRecord))
_TRACE_PARSERS = tuple(
    _FIELD_PARSERS[get_type_hints(TraceRecord)[name]] for name in _TRACE_COLUMNS
)
_trace_row = attrgetter(*_TRACE_COLUMNS)
TRACE_HEADER = ",".join(_TRACE_COLUMNS)


class LibsvmParseError(ValueError):
    """Malformed LIBSVM input; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ConfigError(ValueError):
    """Invalid run configuration; message names the offending key."""


@dataclass
class Dataset:
    """A parsed design matrix with +/-1 labels."""

    design: sp.csr_matrix
    labels: np.ndarray
    name: str = ""
    source: str = "<memory>"

    @property
    def n(self) -> int:
        return self.design.shape[0]

    @property
    def d(self) -> int:
        return self.design.shape[1]

    @property
    def nnz(self) -> int:
        return int(self.design.nnz)


def parse_libsvm(
    stream: IO[str] | Iterable[str] | str | Path,
    dimension: int | None = None,
    name: str = "",
) -> Dataset:
    """Parse LIBSVM text into a Dataset.

    ``stream`` may be a path, an open text file, or any iterable of lines.
    The column count is the largest feature index seen unless ``dimension``
    pins it explicitly (guarding against truncated files). Every line either
    yields a sample, is skipped as blank/comment, or raises with its line
    number.

    The text is read and parsed one block of whole lines, about 1 MB, at a
    time: an error stops the reading within one block past its line, and the
    memory held beyond the result is bounded by the block.
    """
    if isinstance(stream, (str, Path)):
        with open(stream, "rb") as fh:
            return _parse_blocks(
                _file_blocks(fh), dimension, name or Path(stream).name, str(stream)
            )
    source = getattr(stream, "name", "<memory>")
    return _parse_blocks(_line_blocks(stream), dimension, name, str(source))


def _file_blocks(fh: IO[bytes]) -> Iterator[bytes]:
    """Blocks of whole lines from a binary file."""
    while block := fh.read(_BLOCK_BYTES):
        yield block + fh.readline()


def _line_blocks(lines: Iterable[str]) -> Iterator[bytes]:
    """Blocks of whole lines from text lines; every item ends a line."""
    block: list[str] = []
    size = 0
    for line in lines:
        if not line.endswith("\n"):
            line += "\n"
        block.append(line)
        size += len(line)
        if size >= _BLOCK_BYTES:
            yield "".join(block).encode("utf-8", "surrogatepass")
            block, size = [], 0
    if block:
        yield "".join(block).encode("utf-8", "surrogatepass")


def _parse_blocks(
    blocks: Iterable[bytes], dimension: int | None, name: str, source: str
) -> Dataset:
    raw_labels, row_nnz, cols, vals = [], [], [], []
    max_index = 0
    first_line = 1
    for block in blocks:
        if not block.endswith(b"\n"):
            block += b"\n"
        parsed = _parse_block(block, dimension)
        if parsed is None:
            _raise_first_error(block, first_line, dimension)
        labels, nnz, index, value, lines = parsed
        raw_labels.append(labels)
        row_nnz.append(nnz)
        cols.append(index)
        vals.append(value)
        if index.size:
            max_index = max(max_index, int(index.max()) + 1)
        first_line += lines
    raw = np.concatenate(raw_labels) if raw_labels else np.empty(0)
    if not raw.size:
        raise LibsvmParseError(0, "no samples found")

    label_set = {v for v in (-1.0, 0.0, 1.0, 2.0) if (raw == v).any()}
    if label_set <= {-1.0, 1.0}:
        labels = raw
    elif label_set == {0.0, 1.0}:
        labels = np.where(raw == 0.0, -1.0, 1.0)
    elif label_set == {1.0, 2.0}:
        labels = np.where(raw == 2.0, -1.0, 1.0)
    else:
        raise LibsvmParseError(
            0, f"label set {sorted(label_set)} cannot be mapped to -1/+1"
        )

    d = max_index if dimension is None else dimension
    # lines are rows in file order and tokens are already sorted by column,
    # so the CSR arrays are the blocks' arrays plus row offsets
    stored = sum(c.size for c in cols)
    indptr = np.zeros(raw.size + 1, dtype=np.int32 if stored <= _MAX_INT32 else np.int64)
    np.cumsum(np.concatenate(row_nnz), out=indptr[1:])
    data = np.concatenate(vals)
    del vals
    indices = np.concatenate(cols)
    del cols
    design = sp.csr_matrix((data, indices, indptr), shape=(raw.size, d))
    return Dataset(design=design, labels=labels, name=name, source=source)


def _blank_comments(text: np.ndarray) -> np.ndarray:
    """A copy of a block's bytes with each ``#`` to its line's end made spaces."""
    hashes = np.flatnonzero(text == ord("#"))
    newlines = np.flatnonzero(text == ord("\n"))
    ends, first = np.unique(newlines[np.searchsorted(newlines, hashes)], return_index=True)
    inside = np.zeros(text.size, dtype=np.int8)
    inside[hashes[first]] = 1
    inside[ends] = -1
    out = text.copy()
    out[np.cumsum(inside, dtype=np.int8).view(bool)] = ord(" ")
    return out


def _parse_block(block: bytes, dimension: int | None):
    """Labels, row lengths, 0-based columns, values and line count of a block.

    ``block`` is whole lines ending in a newline. Returns None when a line
    breaks a rule of ``_check_line``, checked here for all lines at once;
    ``_raise_first_error`` then names the line.
    """
    text = np.frombuffer(block, dtype=np.uint8)
    if b"#" in block:
        text = _blank_comments(text)
        block = text.tobytes()
    if block.translate(None, _ALLOWED_BYTES):
        return None
    space = text <= ord(" ")  # only separators and newlines are this low now
    # the block starts a line, so a token starts at a non-space byte that
    # opens the block or follows a space
    begins = ~space
    begins[1:] &= space[:-1]
    starts = np.flatnonzero(begins)
    newlines = np.flatnonzero(text == ord("\n"))
    # a line's first token is its label: the first token of the block and
    # the first after each newline, which a blank line repeats
    label_tokens = np.concatenate(([0], np.searchsorted(starts, newlines[:-1])))
    label_tokens = label_tokens[label_tokens < starts.size]
    label_tokens = label_tokens[np.diff(label_tokens, prepend=-1) > 0]
    is_label = np.zeros(starts.size, dtype=bool)
    is_label[label_tokens] = True
    features = np.flatnonzero(~is_label)
    # feature token j holds colon j after its index digits, checked below,
    # so a label holds no colon and a feature token one
    colons = np.flatnonzero(text == ord(":"))
    if colons.size != features.size:
        return None
    # no value is empty, so every token gives fromstring at least one number
    if space[colons + 1].any():
        return None
    # decode the unsigned decimal indices from their bytes, right-aligned at
    # the colons, and blank them so that fromstring reads labels and values
    width = colons - starts[features]
    index = np.zeros(features.size)
    numeric = text.copy()
    numeric[colons] = ord(" ")
    for shift in range(int(width.max(initial=0)), 0, -1):
        at = colons - shift
        inside = width >= shift
        digit = text[at] - ord("0")  # bytes below '0' wrap above 9
        if (inside & (digit > 9)).any():
            return None
        index = index * 10 + np.where(inside, digit, 0)
        numeric[at[inside]] = ord(" ")
    if features.size:
        continues = ~is_label[features[1:] - 1]
        if (continues & (index[1:] <= index[:-1])).any():
            return None
        high = _MAX_EXACT_INDEX if dimension is None else min(dimension, _MAX_EXACT_INDEX)
        if index.min() < 1 or not index.max() <= high:
            return None
    if starts.size:
        try:
            with warnings.catch_warnings():
                # older numpy warns and stops at unread text where newer numpy raises
                warnings.simplefilter("error", DeprecationWarning)
                numbers = np.fromstring(numeric.tobytes(), sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    else:
        numbers = np.empty(0)  # fromstring reads whitespace alone as -1
    if numbers.size != starts.size:  # so exactly one number per token
        return None
    labels = numbers[is_label]
    value = numbers[features]
    if not ((labels == -1.0) | (labels == 0.0) | (labels == 1.0) | (labels == 2.0)).all():
        return None
    if not np.isfinite(value).all():
        return None
    row_nnz = np.diff(label_tokens, append=starts.size) - 1
    index -= 1
    columns = index.astype(np.int32 if index.max(initial=0) <= _MAX_INT32 else np.int64)
    return labels, row_nnz, columns, value, newlines.size


def _raise_first_error(block: bytes, first_line: int, dimension: int | None) -> NoReturn:
    """Raise the error of the first bad line in a block ``_parse_block`` rejected."""
    lines = block.decode("utf-8", "replace").split("\n")
    for line_no, line in enumerate(lines, start=first_line):
        _check_line(line, line_no, dimension)
    raise RuntimeError(
        f"lines from {first_line}: the block parser rejected lines the line checks accept"
    )


def _check_line(line: str, line_no: int, dimension: int | None) -> None:
    """Raise the first rule one LIBSVM line breaks, with its line number."""
    hash_pos = line.find("#")
    if hash_pos >= 0:
        line = line[:hash_pos]
    tokens = line.split()
    if not tokens:
        return
    try:
        label = float(tokens[0])
    except ValueError:
        raise LibsvmParseError(line_no, f"non-numeric label {tokens[0]!r}") from None
    if label not in (-1.0, 0.0, 1.0, 2.0):
        raise LibsvmParseError(line_no, f"label {tokens[0]!r} is not one of -1, 0, 1, 2")
    prev_index = 0
    for token in tokens[1:]:
        idx_text, sep, val_text = token.partition(":")
        if not sep:
            raise LibsvmParseError(line_no, f"feature token {token!r} lacks ':'")
        try:
            index = int(idx_text)
            value = float(val_text)
        except ValueError:
            raise LibsvmParseError(line_no, f"non-numeric feature token {token!r}") from None
        if index <= prev_index:
            raise LibsvmParseError(
                line_no, f"index {index} not strictly increasing after {prev_index}"
            )
        if not math.isfinite(value):
            raise LibsvmParseError(line_no, f"non-finite value in {token!r}")
        prev_index = index
    # indices increase along a line, so its last one is its largest
    if prev_index > _MAX_INDEX:
        raise LibsvmParseError(line_no, f"feature index {prev_index} does not fit in int64")
    if dimension is not None and prev_index > dimension:
        raise LibsvmParseError(
            line_no, f"feature index {prev_index} exceeds pinned dimension {dimension}"
        )
    if prev_index > _MAX_EXACT_INDEX:
        raise LibsvmParseError(line_no, f"feature index {prev_index} is 2^53 or more")
    # Python's int and float also read '_', signs on indices, more whitespace
    # and non-ASCII digits, which the block parser does not
    outside = set(line) - _ALLOWED_CHARS
    if outside:
        raise LibsvmParseError(line_no, f"character {min(outside)!r} is not allowed")
    for token in tokens[1:]:
        if not token.partition(":")[0].isdigit():
            raise LibsvmParseError(line_no, f"index of {token!r} is not decimal digits")


def _format_field(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_trace_csv(result: RunResult, sink: IO[str] | str | Path) -> None:
    """Write one row per trace record under the fixed header."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8", newline="") as fh:
            write_trace_csv(result, fh)
        return
    sink.write(TRACE_HEADER + "\n")
    for rec in result.trace:
        sink.write(",".join(map(_format_field, _trace_row(rec))) + "\n")


def read_trace_csv(source: IO[str] | str | Path) -> list[TraceRecord]:
    """Read back a trace CSV; numeric fields round-trip exactly.

    Raises ValueError naming the 1-based line of a row whose field count is
    not the header's, or of the first row of a column with a value its
    field's parser rejects.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return read_trace_csv(fh)
    lines = [line.rstrip("\n") for line in source]
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError("trace CSV header missing or unexpected")
    rows, line_nos = [], []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(_TRACE_COLUMNS):
            raise ValueError(
                f"trace CSV line {line_no}: {len(parts)} fields, expected {len(_TRACE_COLUMNS)}"
            )
        rows.append(parts)
        line_nos.append(line_no)
    columns = []
    for name, parse, texts in zip(_TRACE_COLUMNS, _TRACE_PARSERS, zip(*rows)):
        values = []
        try:
            for text in texts:
                values.append(parse(text))
        except ValueError as exc:
            raise ValueError(
                f"trace CSV line {line_nos[len(values)]}: column {name!r}: {exc}"
            ) from None
        columns.append(values)
    return [TraceRecord(*values) for values in zip(*columns)]


def write_summary_json(
    result: RunResult,
    sink: IO[str] | str | Path,
    config: dict,
    dataset_info: dict | None = None,
) -> dict:
    """Write a run summary: config echo, termination, finals, and totals.

    ``config`` is the run's validated flat configuration (``RunSpec.values``),
    echoed as is, so ``validate_spec`` and ``ceqn run --config`` accept the
    echo. Returns the summary it wrote; non-finite finals are written as null.
    """
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8") as fh:
            return write_summary_json(result, fh, config, dataset_info)
    f_final = result.f_final if math.isfinite(result.f_final) else None
    gns_final = (
        result.grad_norm_sq_final
        if math.isfinite(result.grad_norm_sq_final)
        else None
    )
    summary = {
        "config": config,
        "seed": result.config.seed,
        "termination": result.termination,
        "iterations": len(result.trace),
        "final_f": f_final,
        "final_grad_norm_sq": gns_final,
        "final_alpha": result.final_alpha,
        "wall_seconds": result.wall_seconds,
        "evaluations": {
            "n_value": result.n_value,
            "n_grad": result.n_grad,
            "n_hvp": result.n_hvp,
        },
    }
    if dataset_info is not None:
        summary["dataset"] = dataset_info
    json.dump(summary, sink, indent=2)
    sink.write("\n")
    return summary


METHOD_CEQN = "CEQN"
METHOD_ADAPTIVE_DUAL = "ADAPTIVE_DUAL"
METHOD_ADAPTIVE_REG = "ADAPTIVE_REG"
METHOD_FIXED = "FIXED"
METHODS = (METHOD_CEQN, METHOD_ADAPTIVE_DUAL, METHOD_ADAPTIVE_REG, METHOD_FIXED)

PROBLEM_LOGISTIC = "logistic"
PROBLEM_QUADRATIC = "quadratic"

# key -> (allowed types, default); None default means required-if-applicable.
# A solver setting's default is its dataclass field's.
_SPEC_SCHEMA: dict[str, tuple[tuple[type, ...], object]] = {
    "method": ((str,), None),
    "problem": ((str,), PROBLEM_LOGISTIC),
    "dataset": ((str,), None),
    "mu": ((float, int), 1e-4),
    "dimension": ((int,), None),
    "approx_kind": ((str,), ApproxConfig.kind),
    "pair_strategy": ((str,), ApproxConfig.pair_strategy),
    "memory": ((int,), ApproxConfig.memory),
    "h0_scale": ((float, int), ApproxConfig.h0_scale),
    "theta": ((float, int), CeqnParams.theta),
    "cubic": ((float, int), None),
    "alpha0": ((float, int), AdaptiveParams.alpha0),
    "gamma_inc": ((float, int), AdaptiveParams.gamma_inc),
    "gamma_dec": ((float, int), AdaptiveParams.gamma_dec),
    "max_inner": ((int,), AdaptiveParams.max_inner),
    "max_iters": ((int,), SolverConfig.max_iters),
    "grad_tol": ((float, int), SolverConfig.grad_tol),
    "max_seconds": ((float, int), None),
    "seed": ((int,), SolverConfig.seed),
    "x0": ((str, list), SolverConfig.x0),
}


@dataclass
class RunSpec:
    """Validated flat configuration: problem selection plus solver settings."""

    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    def with_overrides(self, overrides: dict) -> "RunSpec":
        merged = dict(self.values)
        merged.update(overrides)
        return validate_spec(merged)

    def to_solver_config(self) -> SolverConfig:
        v = self.values
        approx = ApproxConfig(
            memory=v["memory"],
            h0_scale=v["h0_scale"],
            kind=v["approx_kind"],
            pair_strategy=v["pair_strategy"],
        )
        method = v["method"]
        if method == METHOD_CEQN:
            engine = CeqnParams(theta=v["theta"], cubic=v.get("cubic", 0.0))
        elif method == METHOD_FIXED:
            engine = v["cubic"]
        else:
            engine = AdaptiveParams(
                cubic=v["cubic"],
                alpha0=v["alpha0"],
                gamma_inc=v["gamma_inc"],
                gamma_dec=v["gamma_dec"],
                mode=MODE_DUAL if method == METHOD_ADAPTIVE_DUAL else MODE_REG,
                max_inner=v["max_inner"],
            )
        return SolverConfig(
            engine=engine,
            approx=approx,
            max_iters=v["max_iters"],
            grad_tol=v["grad_tol"],
            max_seconds=v.get("max_seconds", math.inf),
            seed=v["seed"],
            x0=v["x0"],
        )

    def load_problem(self):
        """Build the configured problem, resolving the dataset path."""
        if self.values["problem"] == PROBLEM_QUADRATIC:
            dim = self.values.get("dimension") or 3
            return tridiagonal_quadratic(dim), {"name": f"quadratic-{dim}", "n": dim, "d": dim}
        path = resolve_dataset_path(self.values["dataset"])
        dataset = parse_libsvm(path, dimension=self.values.get("dimension"))
        problem = LogisticProblem(dataset.design, dataset.labels, self.values["mu"])
        info = {
            "name": dataset.name,
            "path": str(path),
            "n": dataset.n,
            "d": dataset.d,
            "nnz": dataset.nnz,
            "mu": self.values["mu"],
        }
        return problem, info


def resolve_dataset_path(path: str | Path) -> Path:
    """Resolve a dataset path, rooting relative paths at $CEQN_DATA_DIR if set."""
    p = Path(path)
    if not p.is_absolute():
        root = os.environ.get(DATA_DIR_ENV)
        if root:
            p = Path(root) / p
    return p


def validate_spec(values: dict) -> RunSpec:
    """Check a flat config mapping against the schema; errors name the key."""
    if not isinstance(values, dict):
        raise ConfigError("configuration must be a flat JSON object")
    for key, value in values.items():
        if key not in _SPEC_SCHEMA:
            raise ConfigError(f"unknown configuration key {key!r}")
        allowed, _ = _SPEC_SCHEMA[key]
        if isinstance(value, bool) or not isinstance(value, allowed):
            names = "/".join(t.__name__ for t in allowed)
            raise ConfigError(
                f"key {key!r} expects {names}, got {type(value).__name__} ({value!r})"
            )
        # json also reads NaN, Infinity, null and ints past the float range
        numbers = value if isinstance(value, list) else [value] if float in allowed else []
        if not all(type(e) in (int, float) and abs(e) <= sys.float_info.max for e in numbers):
            raise ConfigError(f"key {key!r} takes finite numbers, got {value!r}")
    merged = {}
    for key, (allowed, default) in _SPEC_SCHEMA.items():
        value = values.get(key, default)
        if value is not None:
            # a key that takes a float holds one, so equal settings echo alike
            merged[key] = float(value) if float in allowed else value
    if "method" not in merged:
        raise ConfigError("missing required key 'method'")
    if merged["method"] not in METHODS:
        raise ConfigError(
            f"key 'method' must be one of {', '.join(METHODS)}; got {merged['method']!r}"
        )
    if merged["problem"] not in (PROBLEM_LOGISTIC, PROBLEM_QUADRATIC):
        raise ConfigError(
            f"key 'problem' must be 'logistic' or 'quadratic'; got {merged['problem']!r}"
        )
    if merged["problem"] == PROBLEM_LOGISTIC and "dataset" not in merged:
        raise ConfigError("missing required key 'dataset' for a logistic problem")
    if merged["method"] != METHOD_CEQN and "cubic" not in merged:
        raise ConfigError(f"missing required key 'cubic' for method {merged['method']}")
    spec = RunSpec(merged)
    try:
        spec.to_solver_config()  # surfaces engine-level validation errors early
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return spec


def typed_value(key: str, value: float) -> float | int:
    """A number for ``key`` as the schema types it: an int for a key that
    takes only ints, which accepts only a whole number, else a float."""
    if key not in _SPEC_SCHEMA:
        raise ConfigError(f"unknown configuration key {key!r}")
    allowed, _ = _SPEC_SCHEMA[key]
    if float in allowed or int not in allowed:
        return float(value)
    if not float(value).is_integer():
        raise ConfigError(f"key {key!r} expects int, got {value!r}")
    return int(value)


def load_config(path: str | Path) -> RunSpec:
    """Load and validate a flat JSON run configuration."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            values = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    return validate_spec(values)
