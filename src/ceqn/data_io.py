"""LIBSVM parsing, run configuration, and trace/summary artifacts.

The LIBSVM reader accepts ``<label> <idx>:<value> ...`` lines with 1-based
strictly increasing indices, ``#`` comments, and blank lines; labels are
remapped to {-1, +1} ({0,1} and {1,2} label sets are recognized). Numbers are
ASCII decimals separated by spaces, tabs or a carriage return; an index is
unsigned digits below 2^53. The reader parses one block of whole lines, about
1 MB, at a time with numpy. It decodes indices, labels and values from the
block's bytes with integer arithmetic on 8-digit words, and rounds a value
with one float64 operation or, for a longer mantissa, with 128-bit integer
products (Eisel–Lemire), the same on every platform. A number it cannot
prove exact, such as one longer than 24 bytes, goes to ``np.fromstring``;
every float equals Python's ``float`` of its text. A
block that fails a check is run through the per-line checker, which raises
the first error with its line number, so the reading stops within one block
past a bad line and memory beyond the result is bounded by the block.

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
from numpy.lib.stride_tricks import sliding_window_view

from .driver import RunResult, SolverConfig, TraceRecord
from .hessian import ApproxConfig
from .problems import LogisticProblem, tridiagonal_quadratic
from .steps import MODE_DUAL, MODE_REG, AdaptiveParams, CeqnParams

DATA_DIR_ENV = "CEQN_DATA_DIR"

# LIBSVM text is parsed in blocks of whole lines of about this many bytes.
# On a 25 MB file, 1 MB blocks parsed as fast as 4 MB ones and lowered a
# fresh process's peak RSS by 26 MB: the per-byte temporaries are a few
# times the block.
_BLOCK_BYTES = 1 << 20

_MAX_INDEX = np.iinfo(np.int64).max
# an index must be below 2^53, so that it is exact as a float64 too
_MAX_EXACT_INDEX = 2**53 - 1
# scipy stores CSR indices and offsets as int32 when every value fits, so
# arrays built as int32 then reach the matrix without a copy
_MAX_INT32 = np.iinfo(np.int32).max

# A number, an index or an exponent is decoded from the 8, 16 or 24 bytes
# that end with it, read as 1 to 3 little-endian words of 8 digit bytes
_WORDS = 3
_WINDOW = 8 * _WORDS
_WINDOW_PAD = np.full(_WINDOW, ord(" "), dtype=np.uint8)


def _lanes(byte: int) -> np.uint64:
    """A word holding ``byte`` in each of its 8 bytes."""
    return np.uint64(byte * 0x0101010101010101)


# item c keeps the last c bytes of a word
_KEEP_LAST = np.array([(1 << 8 * c) - 1 << 64 - 8 * c for c in range(9)], dtype=np.uint64)
# in a word of bytes below 0x80, adding 0x76 sets the top bit of each byte
# of 10 or more, adding 0x7F that of each nonzero byte, and no carry
# crosses bytes
_TEN_CARRY, _NONZERO_CARRY, _BYTE_TOPS = _lanes(0x76), _lanes(0x7F), _lanes(0x80)
_DOT = ord(".") ^ ord("0")
_ASCII_ZEROS, _DOT_LANES = _lanes(ord("0")), _lanes(_DOT)
# (mask, multiplier, shift) steps joining neighbouring runs of 1, 2 and 4
# digits: 8 digit bytes become the integer they spell
_SWAR_STEPS = tuple(
    (np.uint64(keep), np.uint64(1 + (10**run << 8 * run)), np.uint64(8 * run))
    for run, keep in ((1, 0x0F0F0F0F0F0F0F0F), (2, 0x00FF00FF00FF00FF), (4, 0x0000FFFF0000FFFF))
)
# a 0x01 at byte j of a word with m words after it, times the last-but-m
# constant, puts in the top byte the count of bytes after it, 8m + 7 - j
_BYTES_AFTER = np.array(
    [int.from_bytes(bytes(range(8 * m, 8 * m + 8)), "little") for m in range(_WORDS)][::-1],
    dtype=np.uint64,
)
_TOP_BYTE = np.uint64(56)
# 24 digits spell less than 2^64 when their first 8 spell at most 1843
_TOP_WORD_LIMIT = np.uint64(1844)
_NINE, _TEN, _TEN_8 = np.uint64(9), np.uint64(10), np.uint64(10**8)
_FLOAT64_EXACT = np.uint64(2**53)
# divisors that take a dot's 0 out of a number's digits: 10^k for k places
# after the dot, and for more than 19 places or no dot one above any digits
_DOT_SCALES = np.array([10**k for k in range(20)] + [2**64 - 1], dtype=np.uint64)
# 10^k up to the largest power float64 holds exactly, then -10^k for
# negative numbers
_MAX_POWER = 22
_POWERS_OF_TEN = np.array([float(10**k) for k in range(_MAX_POWER + 1)] * 2)
_POWERS_OF_TEN[_MAX_POWER + 1:] *= -1

# Eisel–Lemire reads M·10^q with a 128-bit power of five for each q from
# _MIN_Q to _MAX_Q: below that range every such number rounds to 0, above
# it to infinity
_MIN_Q, _MAX_Q = -342, 308


def _power_of_five(q: int) -> tuple[int, int]:
    """5^q·2^s as a 128-bit integer with its top bit set, and s.

    As the published table has it, the product is truncated for q >= 0,
    rounded up for -27 <= q < 0, where M·10^q can be an exact midpoint
    between float64s, and truncated below.
    """
    power = 5 ** abs(q)
    if q >= 0:
        return power << 128 >> power.bit_length(), 128 - power.bit_length()
    shift = 127 + power.bit_length()
    return (1 << shift) // power + (q >= -27), shift


_FIVES = [_power_of_five(q) for q in range(_MIN_Q, _MAX_Q + 1)]
_FIVES_HIGH = np.array([five >> 64 for five, _ in _FIVES], dtype=np.uint64)
_FIVES_LOW = np.array([five & (1 << 64) - 1 for five, _ in _FIVES], dtype=np.uint64)
# M·10^q is M·2^(63-b) for M's top bit b, times 5^q·2^s, times
# 2^(q-s+b-63). The product's top word, shifted right by 9 plus its top bit
# u, holds 54 bits: the float64's 53 and a rounding bit. So the float's
# biased exponent, less the 1 that its rounded mantissa's leading bit adds,
# is this term for q plus b and u; a negative term wraps
_EXPONENT_TERMS = np.array(
    [1149 + q - shift for q, (_, shift) in enumerate(_FIVES, start=_MIN_Q)], dtype=np.int64
).view(np.uint64)
del _FIVES
# item k is 2^k - 1: M is below 2^k when at most item k
_BELOW_POWERS_OF_TWO = np.array([(1 << k) - 1 for k in range(65)], dtype=np.uint64)
_ONE, _THREE, _NINE_ONES = np.uint64(1), np.uint64(3), np.uint64(0x1FF)
_HALF_WORD, _HALF_MASK = np.uint64(32), np.uint64(0xFFFFFFFF)
_MANTISSA_BITS, _TOP_BIT = np.uint64(52), np.uint64(63)
_EXPONENT_BIAS, _INFINITE_EXPONENT = np.uint64(1023), np.uint64(2047)
_INFINITY_BITS = np.uint64(0x7FF << 52)

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
    # the windows of the first tokens reach back into the padding
    padded = np.concatenate((_WINDOW_PAD, text))
    space = padded <= ord(" ")  # only separators and newlines are this low now
    # the padding and the final newline are spaces, so the edges between
    # spaces and tokens alternate: a token's start, then its end
    edges = np.flatnonzero(space[_WINDOW:] != space[_WINDOW - 1:-1])
    starts, ends = edges[0::2], edges[1::2]
    newlines = np.flatnonzero(text == ord("\n"))
    # a line's first token is its label: the first token of the block and
    # the first after each newline, which a blank line repeats
    label_tokens = np.concatenate(([0], np.searchsorted(starts, newlines[:-1])))
    label_tokens = label_tokens[label_tokens < starts.size]
    label_tokens = label_tokens[np.diff(label_tokens, prepend=-1) > 0]
    is_label = np.zeros(starts.size, dtype=bool)
    is_label[label_tokens] = True
    features = np.flatnonzero(~is_label)
    # feature token j holds colon j after its index digits, checked by
    # _read_indices, so a label holds no colon and a feature token one
    colons = np.flatnonzero(text == ord(":"))
    if colons.size != features.size:
        return None
    if space[colons + (_WINDOW + 1)].any():  # no value is empty
        return None
    del space  # each array goes once used, to keep a block's peak memory low
    continues = ~is_label[features[1:] - 1]
    columns = _read_indices(block, padded, starts[features], colons, continues, dimension)
    if columns is None:
        return None
    # a label is its whole token and a value the rest of its token after the
    # colon: from here on, starts are the numbers'
    starts[features] = colons + 1
    del colons, continues
    numbers = _read_numbers(block, text, padded, starts, ends)
    if numbers is None:
        return None
    labels = numbers[is_label]
    value = numbers[features]
    if not ((labels == -1.0) | (labels == 0.0) | (labels == 1.0) | (labels == 2.0)).all():
        return None
    if not np.isfinite(value).all():
        return None
    row_nnz = np.diff(label_tokens, append=starts.size) - 1
    return labels, row_nnz, columns, value, newlines.size


def _span_words(padded: np.ndarray, ends: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The bytes before each of ``ends`` as words, with digits read as 0 to 9.

    ``padded`` holds the text after ``_WINDOW`` bytes of padding. Row i
    holds the 8, 16 or 24 text bytes before ``ends[i]``: as few words as
    hold the longest span, at most 3. Each byte is XORed with ASCII '0',
    which makes a digit its value and any other byte 10 or more, and the
    bytes before a span of ``lengths[i]`` bytes are cleared, so that they
    read as leading zeros. Byte j of word k is the row's byte 8k + j.
    """
    count = min(_WORDS, max(1, (int(lengths.max(initial=1)) + 7) // 8))
    width = 8 * count
    # one void item per window, so that a gather copies whole windows
    windows = sliding_window_view(padded[_WINDOW - width:], width).view(f"V{width}")[:, 0]
    words = windows[ends].view("<u8").reshape(-1, count)
    words ^= _ASCII_ZEROS
    for after, word in enumerate(words.T[::-1]):
        word &= _KEEP_LAST[np.clip(lengths - 8 * after, 0, 8)]
    return words


def _spelled(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integer that each row of ``_span_words`` spells, and where that holds.

    A row holds if its every byte is a digit and its integer is below 2^64;
    the integer of another row is garbage. Overwrites ``words``.
    """
    tops = words + _TEN_CARRY
    tops &= _BYTE_TOPS
    stray = tops[:, 0]
    for word in tops.T[1:]:
        stray |= word
    digits = stray == 0
    del tops, stray
    for keep, multiplier, shift in _SWAR_STEPS:
        words &= keep
        words *= multiplier
        words >>= shift
    value = words[:, 0]
    if words.shape[1] == _WORDS:
        digits &= value < _TOP_WORD_LIMIT
    for word in words.T[1:]:
        value = value * _TEN_8 + word
    return value, digits


def _read_indices(
    block: bytes,
    padded: np.ndarray,
    starts: np.ndarray,
    colons: np.ndarray,
    continues: np.ndarray,
    dimension: int | None,
) -> np.ndarray | None:
    """The 0-based columns of feature tokens, or None if an index breaks a rule.

    An index is the digits from its token's start to its colon, at least 1,
    at most the pinned dimension and below 2^53, and above the index before
    it where ``continues`` says the tokens share a line. An index longer
    than a window must start with zeros alone.
    """
    widths = colons - starts
    index, digits = _spelled(_span_words(padded, colons, widths))
    if not digits.all():
        return None
    for begin, stop in zip(*(a[widths > _WINDOW].tolist() for a in (starts, colons - _WINDOW))):
        if block[begin:stop].strip(b"0"):
            return None
    if index.size:
        if (continues & (index[1:] <= index[:-1])).any():
            return None
        high = _MAX_EXACT_INDEX if dimension is None else min(dimension, _MAX_EXACT_INDEX)
        if index.min() < 1 or not index.max() <= high:
            return None
    columns = index.astype(np.int32 if index.max(initial=0) <= _MAX_INT32 + 1 else np.int64)
    columns -= 1
    return columns


def _read_numbers(
    block: bytes, text: np.ndarray, padded: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray | None:
    """The float64 of each number token, or None if one is not a number.

    A token is a sign, a mantissa of digits with at most one dot, and an
    exponent ``e`` or ``E``, sign and digits; the mantissa M is an integer
    and the number M·10^-p, for an integer p. When M <= 2^53 and
    |p| <= 22, both factors are exact float64s and one divide or multiply
    rounds their quotient or product correctly (Clinger, "How to read
    floating point numbers accurately", PLDI 1990); so does a zero M at
    any p. ``_eisel_lemire`` rounds every other M below 2^64 correctly
    where the result is a normal float64. The rest, such as a subnormal or
    infinite result or a mantissa or exponent longer than ``_WINDOW``
    bytes, go to one ``np.fromstring`` call, which rounds correctly.
    """
    first = text[starts]
    negative = first == ord("-")
    signed = negative | (first == ord("+"))
    lengths = ends - starts
    exact = np.ones(starts.size, dtype=bool)
    power = np.zeros(starts.size, dtype=np.intp)
    if b"e" in block or b"E" in block:
        marks = np.flatnonzero((text | 0x20) == ord("e"))
        marked = np.searchsorted(ends, marks, side="right")
        if (np.diff(marked) == 0).any():  # two exponents make no number
            return None
        exponents = _read_exponents(text, padded, marks + 1, ends[marked])
        if exponents is None:
            return None
        power[marked], exact[marked] = exponents
        mantissa_ends = ends.copy()
        mantissa_ends[marked] = marks
        lengths = mantissa_ends - starts
    else:
        mantissa_ends = ends
    # a sign is cleared with the bytes before the mantissa
    words = _span_words(padded, mantissa_ends, lengths - signed)
    dots, places = _take_dots(words)
    if (dots > 1).any():  # two dots make no number
        return None
    if (lengths - signed - dots < 1).any():  # nor does a mantissa without digits
        return None
    spelled, digits = _spelled(words)
    del words
    exact &= digits & (lengths <= _WINDOW)
    # with the dot read as 0, M' = 10^(k+1)·I + F where F < 10^k, so
    # M' // 10^k = 10·I and M = M' - 9·10^k·I; a number without a dot, or
    # with 20 places or more, which put its dot above every digit of
    # M' < 2^64, is divided by 2^64 - 1 and kept
    scale = _DOT_SCALES[np.where(dots == 1, np.minimum(places, _DOT_SCALES.size - 1), -1)]
    whole = spelled // scale
    whole //= _TEN
    whole *= scale
    whole *= _NINE
    spelled -= whole
    del scale, whole
    power = places - power
    # M / 10^p, or M·10^-p for p < 0 after a divide by 1; the divisor
    # carries the sign, since M / -10^p is -(M / 10^p), also at M = 0
    divisor = np.clip(power, 0, _MAX_POWER) + (_MAX_POWER + 1) * negative
    grow = np.flatnonzero(power < 0)
    factor = np.minimum(-power[grow], _MAX_POWER)
    numbers = spelled.astype(np.float64)
    numbers /= _POWERS_OF_TEN[divisor]
    numbers[grow] *= _POWERS_OF_TEN[factor]
    clinger = (spelled <= _FLOAT64_EXACT) & (np.abs(power) <= _MAX_POWER) | (spelled == 0)
    exact &= clinger | (power >= -_MAX_Q) & (power <= -_MIN_Q)
    wide = np.flatnonzero(exact & ~clinger)
    if wide.size:
        value, normal = _eisel_lemire(spelled[wide], -power[wide])
        np.negative(value, out=value, where=negative[wide])
        numbers[wide] = value
        exact[wide[~normal]] = False
    rest = np.flatnonzero(~exact)
    if rest.size:
        spans = map(slice, starts[rest].tolist(), ends[rest].tolist())
        leftover = b" ".join(map(block.__getitem__, spans))
        try:
            with warnings.catch_warnings():
                # older numpy warns and stops at unread text where newer numpy raises
                warnings.simplefilter("error", DeprecationWarning)
                read = np.fromstring(leftover, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
        if read.size != rest.size:  # so exactly one number per token
            return None
        numbers[rest] = read
    return numbers


def _read_exponents(text: np.ndarray, padded: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """The exponents after each ``e``, or None if one has no digit.

    An exponent is a sign and digits from ``starts`` to ``ends``. Returns
    the exponents and where they are exact: only digits, within a window.
    An exponent is clipped at 1 - _MIN_Q: a number of at most a window's
    places lies outside the powers that Eisel–Lemire reads either way.
    """
    first = text[starts]
    negative = first == ord("-")
    signed = negative | (first == ord("+"))
    lengths = ends - starts - signed
    if (lengths < 1).any():
        return None
    value, digits = _spelled(_span_words(padded, ends, lengths))
    exponent = np.minimum(value, np.uint64(1 - _MIN_Q)).astype(np.intp)
    return np.where(negative, -exponent, exponent), digits & (lengths <= _WINDOW)


def _eisel_lemire(mantissas: np.ndarray, powers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """M·10^q correctly rounded to float64, and where that is a normal float.

    Takes ``uint64`` mantissas 1 <= M < 2^64 and powers _MIN_Q <= q <= _MAX_Q.
    M, shifted to set its top bit, times the 128-bit 5^q of the table puts
    the float's 53 bits, a rounding bit and 9 more in the top word of the
    product, and the power of two follows from q and the shifts. The low
    words enter only where the top word ends in nine 1 bits, which a carry
    from them could change. With the table rounded as it is, this decides
    every such M and q (Lemire, "Number parsing at a gigabyte per second",
    arXiv 2101.11408; Mushtak and Lemire, "Fast number parsing without
    fallback", arXiv 2212.06644). An exact midpoint, possible only for
    -4 <= q <= 23, rounds to even. Elsewhere than a normal result the
    float is garbage.
    """
    # M's top bit: that of the float64 nearest M, or the one below where
    # rounding carried M up to a power of two
    top = (mantissas.astype(np.float64).view(np.uint64) >> _MANTISSA_BITS) - _EXPONENT_BIAS
    top -= mantissas <= _BELOW_POWERS_OF_TWO[top]
    normalized = mantissas << _TOP_BIT - top
    index = powers - _MIN_Q
    high, low = _multiply_128(normalized, _FIVES_HIGH[index])
    rough = np.flatnonzero(high & _NINE_ONES == _NINE_ONES)
    carry_in = _multiply_128(normalized[rough], _FIVES_LOW[index[rough]])[0]
    total = low[rough] + carry_in
    high[rough] += total < carry_in
    low[rough] = total
    upper = high >> _TOP_BIT
    shift = upper + _NINE
    mantissa = high >> shift
    # an exact midpoint shows as a zero low word and no 1 bit shifted out
    ties = np.flatnonzero(low <= _ONE)
    ties = ties[
        (powers[ties] >= -4) & (powers[ties] <= 23) & (mantissa[ties] & _THREE == _ONE)
        & (mantissa[ties] << shift[ties] == high[ties])
    ]
    mantissa[ties] -= _ONE  # so that it rounds down, to even
    mantissa += mantissa & _ONE
    mantissa >>= _ONE
    biased = _EXPONENT_TERMS[index] + top + upper
    normal = biased < _INFINITE_EXPONENT
    # the mantissa's implicit bit, or the 2^53 that rounding carried to,
    # adds to the exponent
    mantissa += biased << _MANTISSA_BITS
    normal &= mantissa < _INFINITY_BITS
    return mantissa.view(np.float64), normal


def _multiply_128(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of the 128-bit products a·b; the high word
    from 32-bit halves."""
    a_low, a_high = a & _HALF_MASK, a >> _HALF_WORD
    b_low, b_high = b & _HALF_MASK, b >> _HALF_WORD
    across = a_high * b_low
    down = a_low * b_high
    # three halves below 2^32 each: the middle column's sum cannot wrap
    middle = (a_low * b_low >> _HALF_WORD) + (across & _HALF_MASK) + (down & _HALF_MASK)
    high = a_high * b_high
    high += across >> _HALF_WORD
    high += down >> _HALF_WORD
    high += middle >> _HALF_WORD
    return high, a * b


def _take_dots(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The count of dots in each row of ``_span_words`` and the bytes after one.

    Each dot, which reads as 0x1E, is turned into digit 0.
    """
    dots = words ^ _DOT_LANES
    dots += _NONZERO_CARRY
    np.invert(dots, out=dots)
    dots &= _BYTE_TOPS
    dots >>= np.uint64(7)  # 1 in each byte that held a dot
    words -= dots * _DOT
    count = _row_sums(dots)
    count *= _lanes(1)  # adds up the bytes into the top byte
    count >>= _TOP_BYTE
    dots *= _BYTES_AFTER[_WORDS - dots.shape[1]:]
    dots >>= _TOP_BYTE
    return count.astype(np.intp), _row_sums(dots).astype(np.intp)


def _row_sums(words: np.ndarray) -> np.ndarray:
    """The sum of each row's words, wrapping; a loop over the few columns
    outruns a reduction along the rows."""
    total = words[:, 0].copy()
    for word in words.T[1:]:
        total += word
    return total


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
            # the fixed step 1/L is the closed form at theta = L, cubic = 0
            engine = CeqnParams(theta=v["cubic"], cubic=0.0)
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
    # written so that a NaN also fails the test
    if merged["method"] == METHOD_FIXED and not merged["cubic"] > 0:
        raise ConfigError(f"key 'cubic' must be positive for method FIXED, got {merged['cubic']}")
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
