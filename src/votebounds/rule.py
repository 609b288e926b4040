"""The optimal aggregation rule in log-likelihood form.

The best achievable rule weighs each vote by the log likelihood ratio of
that vote under the two labels and adds the prior log odds:

    score(x) = log(p_y / (1 - p_y))
             + sum_i [ x_i * log(psi_i / (1 - eta_i))
                     + (1 - x_i) * log((1 - psi_i) / eta_i) ]

and decides 1 exactly when the score is >= 0, so an exact tie goes to 1.
Nothing is clamped. A vote impossible under exactly one label (a psi or
eta of 0 or 1) weighs +inf or -inf, so it decides by itself, as
exact._reduce peels such experts off exactly; a vote impossible under
both labels weighs 0. A vector with one vote impossible under label 1
and another impossible under label 0 scores NaN, and NaN >= 0 is false,
so it decides 0; it has probability 0 under both labels, so no draw ever
holds it. Every other weight is the log ratio log(a / b) written above,
for a = P(vote | label 1) and b = P(vote | label 0).

One kernel, `_scores`, sums this for `score`, `decide_batch` and both
Monte Carlo estimators, so no caller can drift from the others on a tie.
It reads the votes packed 8 to a byte, and `_byte_tables` holds, for
each byte, the summed weights of its 8 votes under each of the 256 bit
patterns, added in index order from 0.0. The kernel adds the offset and
then one table entry per byte, byte by byte in index order: one lookup
per 8 votes. A batch is read in place, byte by byte: `_byte_columns`
reads each byte's 8 votes as one word of each row of the caller's own
buffer and packs it into one reused array of m words, so the working
memory is a few arrays of m words, whatever n is. Only the last 1 to 7
votes, when n is not a multiple of 8, are copied, and a non-contiguous
batch is made contiguous once. Monte Carlo hands the same kernel the
packed votes of each block, which its `_pack` packs in place.

`decide_batch` reads two batch forms with one vectorized 0/1 test and
checks every other row one by one. A numeric 2-D ndarray of n columns is
certified as it is, with no copy. A 1-byte array (bool, int8 or uint8)
is certified by its largest byte and then read as bools; any other
(a wider integer or a float), or one that fails, takes two passes,
`bits = x != 0` and `x == bits`, since 0 and 1 are the only numbers
equal to their own truth value, and the second finds the first bad row.
A list or tuple batch is read through `bytearray`, row by row, into a
uint8 run that ends at the first row that is not a list or tuple of n
ints from 0 to 255 (a row of floats, a 1-D array, a bit string); that
run is certified in the same way. Every row from the first one not
certified on, and every row of any other batch (a deque, a generator),
goes through the per-row check, so a bad batch is rejected with the
index, and the words, of its first bad row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ExpertPanel, ValidationError, _check_panel, _scalar, _shown, _vector

__all__ = ["DecisionRule", "build_rule"]

# the little-endian word of 8 bool bytes times _GATHER holds bool byte i
# in bit 56 + i: byte i times byte k of _GATHER lands on bit 56 + i when
# i + k = 7, the lower products fill distinct bits below 56 with no
# carry, and the higher ones pass bit 63
_GATHER = np.uint64(0x0102040810204080)


@dataclass(frozen=True, eq=False)
class DecisionRule:
    """Affine-in-the-votes scoring rule with threshold at zero."""

    offset: float
    vote_one_weights: np.ndarray
    vote_zero_weights: np.ndarray
    _tables: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        w1 = _vector(self.vote_one_weights, "vote_one_weights", "[-inf, inf]")
        w0 = _vector(self.vote_zero_weights, "vote_zero_weights", "[-inf, inf]")
        if w1.size != w0.size:
            raise ValidationError(f"weight vectors have lengths {w1.size} and {w0.size}")
        object.__setattr__(self, "vote_one_weights", w1)
        object.__setattr__(self, "vote_zero_weights", w0)
        object.__setattr__(self, "offset", _scalar(self.offset, "offset"))
        object.__setattr__(self, "_tables", _byte_tables(w1, w0))

    @property
    def n(self) -> int:
        return int(self.vote_one_weights.size)

    def _check_bits(self, x) -> list[int]:
        try:
            votes = list(x)
            bits = [int(b) for b in votes]
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"vote vector {_shown(x)} is not a bit sequence") from None
        if len(bits) != self.n:
            raise ValidationError(
                f"vote vector has length {len(bits)}, rule expects {self.n}"
            )
        for i, (b, v) in enumerate(zip(votes, bits)):
            # int() would also read " 1", "+1", "01" and other digits
            if not (b in ("0", "1") if isinstance(b, str) else v in (0, 1) and b == v):
                raise ValidationError(f"vote {i} is {_shown(b, str)}, expected 0 or 1")
        return bits

    def _bit_rows(self, xs) -> np.ndarray:
        """The (m, n) bool votes of a batch, or the first bad row's error.

        A numeric (m, n) ndarray is certified as it is, and a list or
        tuple batch through its leading run of rows that `bytearray`
        reads (see _leading_run), each by one vectorized 0/1 test. Every
        other row, from the first one not so certified, goes through
        `_check_bits`, so the error names the same row, in the same
        words, as a row-by-row check.
        """
        seq = isinstance(xs, (list, tuple))
        head = self._leading_run(xs) if seq else _numeric(xs, self.n)
        k = 0
        if head is not None:
            bits = _certified(head)
            k = len(head)
            if bits is None:  # not 1-byte, empty, or a bad row to find
                bits = head != 0
                ok = head == bits  # only 0 and 1 equal their own truth value
                k = k if ok.all() else int(ok.all(axis=1).argmin())
            if k == len(xs):
                return bits
        try:
            indexed = enumerate(xs[k:] if k else xs, k)
        except TypeError:  # a number or a 0-d array, say
            raise ValidationError(f"batch {_shown(xs)} is not a sequence of rows") from None
        rows = []
        for idx, row in indexed:
            try:
                rows.append(self._check_bits(row))
            except ValidationError as exc:
                raise ValidationError(f"input {idx}: {exc}") from None
        tail = np.array(rows, dtype=bool).reshape(len(rows), self.n)
        return np.concatenate([bits[:k], tail]) if k else tail

    def _leading_run(self, rows) -> np.ndarray:
        """The (k, n) uint8 votes of the longest leading run of rows that
        are lists or tuples of n ints from 0 to 255, each read through
        `bytearray`; k may be 0. The run ends at the first row that is
        another type or length, or that `bytearray` cannot read."""
        n = self.n
        if not (set(map(type, rows)) <= {list, tuple} and set(map(len, rows)) <= {n}):
            rows = rows[:next(i for i, r in enumerate(rows)
                              if type(r) not in (list, tuple) or len(r) != n)]
        chunks = []
        try:
            chunks.extend(map(bytearray, rows))  # keeps the rows before an error
        except (TypeError, ValueError):  # floats, strings, None, ints past 255
            pass
        return np.frombuffer(b"".join(chunks), np.uint8).reshape(-1, n)

    def _score_rows(self, x: np.ndarray) -> np.ndarray:
        return _scores(_byte_columns(x), len(x), self.offset, self._tables)

    def score(self, x) -> float:
        """Log odds of label 1 given the votes: the offset, then the
        weights of each byte of 8 votes, byte by byte in index order."""
        return float(self._score_rows(np.array([self._check_bits(x)], dtype=bool))[0])

    def decide(self, x) -> int:
        """The label guess for one vote vector, ties resolved to 1."""
        return 1 if self.score(x) >= 0.0 else 0

    def decide_batch(self, xs) -> list[int]:
        """decide applied elementwise; identical inputs give identical outputs.

        A numeric 2-D ndarray is certified as it is, and the leading run
        of list or tuple rows of ints that `bytearray` reads is certified
        in one test; every other row is checked one by one, which costs
        10 to 25 times as much per row as the `bytearray` read. A caller
        holding an array should pass the 2-D array itself, not its rows."""
        return list((self._score_rows(self._bit_rows(xs)) >= 0.0).tobytes())


def _numeric(x, n: int):
    """x when it is a numeric (m, n) ndarray, else None; nothing is converted."""
    numeric = isinstance(x, np.ndarray) and x.ndim == 2 and x.dtype.kind in "biuf"
    return x if numeric and x.shape[1] == n else None


def _certified(head: np.ndarray):
    """The (m, n) bools of a nonempty 1-byte head (bool, int8 or uint8)
    whose entries are all 0 or 1, or None. The head is certified by its
    largest byte alone, as -1 reads 255 and a bool stored as another byte
    reads that byte, and its bytes are then its bools, with no copy."""
    if not head.size or head.dtype.kind not in "biu" or head.itemsize != 1:
        return None
    byte = head.view(np.uint8)
    return byte.view(bool) if byte.max() <= 1 else None


def _byte_tables(w1: np.ndarray, w0: np.ndarray) -> np.ndarray:
    """(ceil(n / 8), 256) tables: entry v of table j is the summed weight
    of votes 8j .. 8j + 7 when vote 8j + i is bit i of v (w1[8j + i] if
    the bit is set, else w0[8j + i]), added in index order from 0.0.
    Votes past n weigh 0, so the padding bits of the last byte add 0."""
    nb = -(-w1.size // 8)
    weights = np.zeros((2, 8 * nb, 1))
    weights[0, :w0.size, 0] = w0
    weights[1, :w1.size, 0] = w1
    tables = np.zeros((nb, 1))
    # step i appends bit i: entries v + 2^i add w1, entries v add w0;
    # a +inf and a -inf vote in one byte add to NaN
    with np.errstate(invalid="ignore"):
        for i in range(8):
            tables = np.concatenate([tables + weights[0, i::8], tables + weights[1, i::8]], axis=1)
    return tables


def _pack(words: np.ndarray) -> np.ndarray:
    """Pack in place words, the (m, k) little-endian uint64 view of an
    (m, 8k) bool array bits, and return it: word j of a row becomes byte j
    of np.packbits(bits, axis=1, bitorder="little"), so bit i of it is
    vote 8j + i. Each word ends below 256, so its bytes 1 .. 7 are written
    as 0. One multiply and one shift per 8 votes, where packbits walks the
    votes one by one."""
    np.multiply(words, _GATHER, out=words)
    return np.right_shift(words, np.uint64(56), out=words)


def _vote_words(x: np.ndarray):
    """For each byte j of the contiguous (m, n) 1-byte rows x, the (m,)
    little-endian words of votes 8j .. 8j + 7: a full byte's word is read
    in place, unaligned, at offset 8j of each row; the last 1 to 7 votes,
    when n is not a multiple of 8, are copied into a zero-padded (m, 8)
    buffer, made only when they are reached, so that it never coexists
    with the buffer numpy fills for a multiply of unaligned words."""
    m, n = x.shape
    full = n - n % 8
    yield from x[:, :full].view("<u8").T
    if full < n:
        pad = np.zeros((m, 8), dtype=np.uint8)
        pad[:, :n - full] = x[:, full:]
        yield pad.view("<u8")[:, 0]


def _byte_columns(x: np.ndarray):
    """For each byte j of the (m, n) 1-byte 0/1 rows x, the (m,) int64
    byte j of np.packbits(x, axis=1, bitorder="little"): bit i of it is
    vote 8j + i, and the votes past n are 0.

    The votes are read from x itself (see _vote_words), made contiguous
    once if they are not, and each word of 8 is packed into one reused
    (m,) scratch that every column shares, so a column must be used
    before the next is drawn."""
    x = np.ascontiguousarray(x).view(np.uint8)
    word = np.empty(len(x), dtype=np.uint64)
    index = word.view(np.int64)  # take reads it with no cast
    for votes in _vote_words(x):
        np.multiply(votes, _GATHER, out=word)
        np.right_shift(word, np.uint64(56), out=word)
        yield index


def _scores(columns, m: int, offset: float, tables: np.ndarray) -> np.ndarray:
    """offset + sum_j tables[j, col_j[r]] for r < m, added byte by byte in
    index order (a matmul or a reduction sums in another order), where
    col_j, item j of columns, holds the (m,) packed votes of byte j as
    integers: a row of Monte Carlo's uint8 block votes, or a column of
    _byte_columns. tables from _byte_tables."""
    s = np.full(m, offset)
    term = np.empty(m)
    with np.errstate(invalid="ignore"):  # +inf and -inf add to NaN
        for table, col in zip(tables, columns, strict=True):
            table.take(col, out=term, mode="clip")  # a byte needs no bounds check
            s += term
    return s


def build_rule(panel: ExpertPanel) -> DecisionRule:
    """Compile a panel into its optimal (Bayes) decision rule: each weight
    is log(a / b), for a = P(vote | label 1) and b = P(vote | label 0),
    which is +inf or -inf when just one of a and b is 0, and 0 when a == b."""
    psi, eta = _check_panel(panel).psi, panel.eta
    a, b = np.array([psi, 1.0 - psi]), np.array([1.0 - eta, eta])
    with np.errstate(divide="ignore", invalid="ignore"):
        w1, w0 = np.where(a == b, 0.0, np.log(a / b))
    return DecisionRule(
        offset=math.log(panel.p_y / (1.0 - panel.p_y)),
        vote_one_weights=w1,
        vote_zero_weights=w0,
    )
