"""The optimal aggregation rule in log-likelihood form.

The best achievable rule weighs each vote by the log likelihood ratio of
that vote under the two labels and adds the prior log odds:

    score(x) = log(p_y / (1 - p_y))
             + sum_i [ x_i * log(psi_i / (1 - eta_i))
                     + (1 - x_i) * log((1 - psi_i) / eta_i) ]

and decides 1 exactly when the score is >= 0, so an exact tie goes to 1.
Boundary parameters would put infinities into the weights; instead they
are clamped into [DEFAULT_CLAMP_EPSILON, 1 - DEFAULT_CLAMP_EPSILON]
before the logs are taken, so the weights are large but finite.
Parameters inside that interval are never touched.

One kernel, `_scores`, sums this for `score`, `decide_batch` and both
Monte Carlo estimators, so no caller can drift from the others on a tie.
`_pack` packs the votes 8 to a byte, and `_byte_tables` holds, for each
byte, the summed weights of its 8 votes under each of the 256 bit
patterns, added in index order from 0.0. The kernel adds the offset and
then one table entry per byte, byte by byte in index order: one lookup
per 8 votes, on packed votes that take an eighth of the memory of bools.

`decide_batch` certifies the longest leading run of rows that numpy
holds as a numeric (k, n) array with one vectorized 0/1 test in two
passes, `bits = x != 0` and `x == bits`, since 0 and 1 are the only
numbers equal to their own truth value; a list of int lists is read row
by row through `bytearray`, not `np.asarray`. Only the rows from the
first uncertified one on (the first bad row, or the first in a form
numpy cannot hold, such as a bit string) are checked one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ExpertPanel, ValidationError, _check_panel, _scalar, _shown, _vector

__all__ = ["DecisionRule", "build_rule", "DEFAULT_CLAMP_EPSILON"]

DEFAULT_CLAMP_EPSILON = 1e-12

# row types a batch's numeric leading run may hold
_ROW_TYPES = {list, tuple, np.ndarray}

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
        w1 = _vector(self.vote_one_weights, "vote_one_weights", "(-inf, inf)")
        w0 = _vector(self.vote_zero_weights, "vote_zero_weights", "(-inf, inf)")
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

        The longest leading run of rows that numpy holds as a numeric
        array is certified by one vectorized test; only the rows from the
        first one it does not certify go through `_check_bits`, so the
        error names the same row, in the same words, as a row-by-row check.
        """
        seq = isinstance(xs, (list, tuple))
        head = self._leading_run(xs) if seq else _numeric(xs, self.n)
        k = 0
        if head is not None:
            bits = head != 0
            ok = head == bits  # only 0 and 1 equal their own truth value
            k = len(head) if ok.all() else int(ok.all(axis=1).argmin())
            if k == len(head) and (not seq or k == len(xs)):
                return bits
            if not (seq or isinstance(xs, np.ndarray)):
                k = 0  # an array-like need not slice like its rows
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
        """The longest leading run of a row sequence that numpy holds as a
        numeric (k, n) array; k may be 0. A run of int lists ends at a row
        that `bytearray` cannot read and that holds anything but 0s and 1s."""
        n = self.n
        types = set(map(type, rows))
        try:
            fits = types <= _ROW_TYPES and set(map(len, rows)) <= {n}
        except TypeError:  # a 0-d array row
            fits = False
        if not fits:
            rows = rows[:next(i for i, r in enumerate(rows)
                              if type(r) not in _ROW_TYPES
                              or getattr(r, "ndim", 1) != 1 or len(r) != n)]
            types = set(map(type, rows))
        chunks = []
        if types <= {list}:  # bytearray(5), bytearray(ndarray) read no votes
            try:
                chunks.extend(map(bytearray, rows))  # keeps the rows before an error
            except (TypeError, ValueError):  # floats, strings, None, ints past 255
                try:
                    floats = set(rows[len(chunks)]) <= {0, 1}  # 0.0 == 0
                except TypeError:  # unhashable votes
                    floats = False
                if not floats:  # the per-row check rejects the row or reads strings
                    rows = rows[:len(chunks)]
        x = _numeric(rows, n) if len(chunks) < len(rows) else None
        if x is None:
            x = np.frombuffer(b"".join(chunks), np.uint8).reshape(-1, n)
        return x

    def _score_rows(self, x: np.ndarray) -> np.ndarray:
        return _scores(_packed(x), self.offset, self._tables)

    def score(self, x) -> float:
        """Log odds of label 1 given the votes: the offset, then the
        weights of each byte of 8 votes, byte by byte in index order."""
        return float(self._score_rows(np.array([self._check_bits(x)], dtype=bool))[0])

    def decide(self, x) -> int:
        """The label guess for one vote vector, ties resolved to 1."""
        return 1 if self.score(x) >= 0.0 else 0

    def decide_batch(self, xs) -> list[int]:
        """decide applied elementwise; identical inputs give identical outputs."""
        return (self._score_rows(self._bit_rows(xs)) >= 0.0).astype(int).tolist()


def _numeric(xs, n: int):
    """xs as a numeric (m, n) array, or None when numpy cannot hold it so."""
    try:
        x = np.asarray(xs)
    except (TypeError, ValueError, OverflowError):  # ragged rows, say
        return None
    return x if x.ndim == 2 and x.shape[1] == n and x.dtype.kind in "biuf" else None


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
    # step i appends bit i: entries v + 2^i add w1, entries v add w0
    for i in range(8):
        tables = np.concatenate([tables + weights[0, i::8], tables + weights[1, i::8]], axis=1)
    return tables


def _pack(bits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.packbits(bits, axis=1, bitorder="little") of an (m, 8k) bool
    array with contiguous rows, written as uint64 into the (m, k) out and
    returned: bit i of byte j is vote 8j + i. One multiply and one shift
    per 8 votes, where packbits walks the votes one by one."""
    np.multiply(bits.view("<u8"), _GATHER, out=out)
    return np.right_shift(out, np.uint64(56), out=out)


def _packed(x: np.ndarray) -> np.ndarray:
    """The (ceil(n / 8), m) uint8 votes of the rows of (m, n) bool x, as
    _scores reads them, with the votes past n 0."""
    m, n = x.shape
    nb = -(-n // 8)
    bits = np.zeros((m, 8 * nb), dtype=bool)
    bits[:, :n] = x
    return _pack(bits, np.empty((m, nb), dtype=np.uint64)).T.astype(np.uint8, order="C")


def _scores(packed: np.ndarray, offset: float, tables: np.ndarray) -> np.ndarray:
    """offset + sum_j tables[j, packed[j, r]] for each column r of the
    (ceil(n / 8), m) uint8 votes, added byte by byte in index order (a
    matmul or a reduction sums in another order); tables from _byte_tables."""
    s = np.full(packed.shape[1], offset)
    term = np.empty(packed.shape[1])
    for table, col in zip(tables, packed):
        table.take(col, out=term, mode="clip")  # a byte needs no bounds check
        s += term
    return s


def build_rule(panel: ExpertPanel) -> DecisionRule:
    """Compile a panel into its optimal decision rule."""
    lo, hi = DEFAULT_CLAMP_EPSILON, 1.0 - DEFAULT_CLAMP_EPSILON
    psi = np.clip(_check_panel(panel).psi, lo, hi)
    eta = np.clip(panel.eta, lo, hi)
    return DecisionRule(
        offset=math.log(panel.p_y / (1.0 - panel.p_y)),
        vote_one_weights=np.log(psi / (1.0 - eta)),
        vote_zero_weights=np.log((1.0 - psi) / eta),
    )
