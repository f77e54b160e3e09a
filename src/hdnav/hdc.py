"""Hypervector algebra on bipolar/real vectors.

A hypervector is a 1-D ``numpy`` array of a shared length ``d``, the
config's: float, or int8 when it holds only signs; ``bind`` and ``recover``
also take an ``(n, d)`` stack, one per row, and ``bundle`` sums the rows of
a float stack or an int8 one.
Information is carried by direction: two independently drawn random
bipolar vectors of that length are pseudo-orthogonal (cosine 0 +/- 1/sqrt(d)).
The algebra has four basic operations:

- ``bundle``: signed elementwise addition of a stack's rows; the result
  stays similar to every summand.  An int8 stack of sign terms (fewer
  than 128 rows) is summed exactly in int8 and bundles to int8 signs.
- ``bind``: elementwise multiplication; the result is dissimilar to both
  inputs but the operation is self-inverse on bipolar vectors.
- ``permute``: circular shift; reversible, used to encode sequence
  position.
- ``recover``: cleanup against a dictionary of known vectors.  It scores
  an (m, d) stack by its cosines to every entry in one matrix product; a
  zero-norm entry or query has no direction and never matches.  A (d,)
  query is a one-row stack.

Every symbolic decision of the layers is one cleanup, and ``cleanup`` is
its one rule: a query's best score wins, the lowest index on ties, and
it must reach the noise floor ``THETA`` times the query's norm, which
must be positive.  ``recover`` applies it to cosines (unit norms); the
map's position lookups apply it to their plane scores.

Operations are pure; the only mutable argument is the ``Stream`` of
random words passed in explicitly wherever randomness is needed.  Each rule
has one home here: ``Stream`` is the one source of a trial's draws, and
``Stream.signs`` the one random-sign draw, which ``random_bipolar`` casts
to float and ``bundle`` adds as its tie-break.  ``sign_pattern`` is the one
int8 sign rule, for a dictionary's rows and the grid's cells alike.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass, field

import numpy as np

# The noise floor of every recovery the layers make, read at call time: at
# d = 1000 it sits about 3.2 sigma above the cosine of a random match.
THETA = 0.1

# a raw output as little-endian bytes, and a 32-bit word of it: a word view of
# the outputs reads each one's low half first on any host
_RAW = np.dtype("<u8")
_WORD = np.dtype("<u4")
_WORD_MASK = 0xFFFFFFFF
_TOP_BIT = 0x80000000


class Stream:
    """A trial's random words: its ``PCG64`` and the half-word numpy would keep pending.

    numpy's ``Generator`` draws a 32-bit word as the low half of one 64-bit
    ``PCG64`` output and keeps the high half pending for its next word.  The
    stream reads the same words from ``random_raw``, with none of the
    ``Generator`` methods' per-call overhead, and its draws give the values,
    and leave the position (the ``PCG64`` state and the pending half), of
    numpy's:

    - ``words(n)``: ``integers(0, 2**32, size=n, dtype=np.uint32)``;
    - ``below(n)``: ``integers(0, n)``, by numpy's rule;
    - ``signs(d)``: ``2 * (random(d, dtype=np.float32) >= 0.5) - 1``, as int8.

    So a stream's draws rest only on ``PCG64``'s raw output, which NEP 19
    keeps stable, and not on the methods' own streams.  Any other bit
    generator is refused.
    """

    __slots__ = ("bit_generator", "pending")

    def __init__(self, bit_generator: np.random.PCG64) -> None:
        if type(bit_generator) is not np.random.PCG64:
            raise TypeError(f"a stream reads PCG64 words, not {type(bit_generator).__name__}'s")
        self.bit_generator = bit_generator
        self.pending: int | None = None  # the high half of the last output, not yet read

    def words(self, n: int) -> np.ndarray:
        """The next n 32-bit words, uint32: the pending half first, then each
        output's low half before its high half."""
        head = self.pending
        if head is None or n == 0:
            return self._fresh(n)
        self.pending = None
        return np.concatenate((np.array([head], dtype=np.uint32), self._fresh(n - 1)))

    def _fresh(self, n: int) -> np.ndarray:
        # ceil(n / 2) outputs as words; an odd n leaves the last high half pending
        words = self.bit_generator.random_raw(-(-n // 2)).astype(_RAW, copy=False).view(_WORD)
        if n % 2:
            self.pending = int(words[-1])
            return words[:-1]
        return words

    def below(self, n: int, words: list[int] | None = None) -> int:
        """``integers(0, n)`` for ``1 <= n <= 2**32``, by numpy's rule (Lemire's method).

        A word w gives ``w * n >> 32``, unless the low 32 bits of ``w * n``
        fall below ``(2**32 - n) % n``; then the word is rejected and the
        next one is read.  ``n == 1`` reads no word.  ``words``, if given,
        holds the stream's next words, already drawn by ``words``, the next
        one last; they are read first, then the stream's own.  As in numpy,
        the threshold is computed only for a word whose low bits fall below
        n: the threshold is below n, so any other word is accepted.
        """
        if n == 1:
            return 0
        while True:
            word = words.pop() if words else int(self.words(1)[0])
            scaled = word * n
            low = scaled & _WORD_MASK
            if low >= n or low >= (_WORD_MASK + 1 - n) % n:
                return scaled >> 32

    def signs(self, d: int) -> np.ndarray:
        """d random int8 signs, +1 where the entry's word has its top bit set.

        That bit is numpy's float32 uniform ``(w >> 8) / 2**24 >= 0.5``, and
        ``Generator.choice([-1, 1])``'s pick ``w >> 31``.  The bit b becomes the
        sign 2 b - 1 in place, in the comparison's own buffer.
        """
        signs = (self.words(d) >= _TOP_BIT).view(np.int8)
        signs += signs  # 2 b; a scalar operand would cost a cast check per call
        signs -= 1
        return signs


def random_bipolar(d: int, stream: Stream) -> np.ndarray:
    """Draw a random float vector with each element +/-1 with equal probability:
    the stream's ``signs``."""
    if d < 1:
        raise ValueError(f"hypervector dimension must be >= 1, got {d}")
    return stream.signs(d).astype(float)


def cosine(x: np.ndarray, y: np.ndarray) -> float:
    """Cosine similarity x.y / (|x||y|), in [-1, 1].

    Magnitude-invariant; identical directions give 1, anti-parallel -1,
    pseudo-orthogonal directions approximately 0.
    """
    _check_same_dim(x, y)
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        raise ValueError("cosine similarity undefined for zero-norm vector")
    return float(np.dot(x, y) / (nx * ny))


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (n, d) stack.

    This is the expression ``np.linalg.norm(x, axis=-1)`` evaluates for
    real input, so the result is bit-identical, without that call's
    per-call overhead.  The squares are taken in float, as that call
    takes them: an int8 entry of magnitude 12 or more would wrap in int8.
    """
    return np.sqrt(np.add.reduce(np.multiply(x, x, dtype=float), axis=-1))


def sign_pattern(x: np.ndarray) -> np.ndarray:
    """Elementwise sign with sign(0) = 0, as int8: the terms that bind into a map.

    ``np.sign(x).astype(np.int8)`` for real input, formed from two bool
    masks, with no float temporary.
    """
    return (x > 0).view(np.int8) - (x < 0).view(np.int8)


def bundle(vectors: np.ndarray, stream: Stream) -> np.ndarray:
    """Signed elementwise sum of the rows of an (n, d) stack, in the sum's own type.

    When the number of summands is even, the stream's next d ``signs`` are
    added last to break elementwise ties, so bundles of bipolar inputs
    are always bipolar; an odd count reads no word.  A float stack gives
    a float bundle.  An int8 stack holds sign terms (entries -1, 0, +1);
    it is summed exactly in int8, so it must have fewer than 128 rows, and
    its bundle is int8.
    """
    n = len(vectors)
    if n == 0:
        raise ValueError("bundle requires at least one vector")
    dtype = float
    if vectors.dtype == np.int8:
        if n >= 128:
            raise ValueError(f"an int8 bundle sums in int8: {n} rows is too many")
        dtype = np.int8
    total = np.add.reduce(vectors, axis=0, dtype=dtype)
    if n % 2 == 0:
        # an even count keeps an integer |total| below its type's maximum, so
        # adding the tie-break cannot overflow
        total += stream.signs(len(total))
    return np.sign(total)


def bind(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise product; self-inverse on bipolar inputs.

    bind(x, bind(x, y)) == y exactly when x is bipolar, which makes the
    operation usable as key-value pairing: multiplying a bundle by a key
    releases (a noisy version of) the bound value.  Either input may be
    an (n, d) stack; a (d,) vector then binds with every row.
    """
    _check_same_dim(x, y)
    return x * y


def permute(x: np.ndarray, k: int) -> np.ndarray:
    """Circular shift of the elements by k positions (k may be negative)."""
    return np.roll(x, k)


@dataclass(frozen=True)
class Dictionary:
    """An ordered set of labelled hypervectors used for cleanup.

    Labels may be any hashable values (object names, grid cells).
    ``vectors`` holds one row per entry; row order defines the tie-break
    for recovery (lowest index wins on exact score ties).  Two tables are
    derived once from the rows: ``norms``, the row norms, and ``signs``,
    the rows' ``sign_pattern`` (the int8 terms that bind into a map).
    """

    labels: tuple[Hashable, ...]
    vectors: np.ndarray  # shape (n, d)
    _index: dict[Hashable, int] = field(init=False, repr=False, compare=False)
    norms: np.ndarray = field(init=False, repr=False, compare=False)  # shape (n,)
    signs: np.ndarray = field(init=False, repr=False, compare=False)  # shape (n, d), int8

    def __post_init__(self) -> None:
        if len(self.labels) == 0:
            raise ValueError("dictionary must not be empty")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("dictionary labels must be unique")
        if self.vectors.ndim != 2 or self.vectors.shape[0] != len(self.labels):
            raise ValueError("need one vector row per label")
        object.__setattr__(self, "_index", {l: i for i, l in enumerate(self.labels)})
        object.__setattr__(self, "norms", row_norms(self.vectors))
        object.__setattr__(self, "signs", sign_pattern(self.vectors))

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: Hashable) -> bool:
        return label in self._index

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def vector(self, label: Hashable) -> np.ndarray:
        return self.vectors[self._index[label]]


def cleanup(
    scores: np.ndarray, norms: np.ndarray, labels: Sequence[Hashable]
) -> tuple[Hashable | None, ...]:
    """The cleanup rule: for each row of (m, n) ``scores``, a label of ``labels`` or None.

    Row i gives ``labels[j]`` for its largest score, the lowest j on ties,
    when that score reaches ``THETA * norms[i]`` (``THETA`` read at call
    time) and ``norms[i] > 0``; otherwise None.  A row holding a NaN
    clears no floor.
    """
    # argmax returns the first (lowest) index on ties
    return tuple(
        labels[b] if score >= THETA * norm and norm > 0 else None
        for score, norm, b in zip(
            scores.max(axis=1).tolist(), norms.tolist(), scores.argmax(axis=1).tolist()
        )
    )


def recover(
    query: np.ndarray, dictionary: Dictionary
) -> Hashable | None | tuple[Hashable | None, ...]:
    """Cleanup: label of the most similar dictionary entry, or None.

    ``cleanup`` over the cosines of ``query`` to every entry, with unit
    norms: a query below the noise floor (or with zero norm) recovers
    nothing, and a zero-norm entry is never recovered.  An (n, d) stack of
    queries is cleaned up in one matrix product and gives a tuple with one
    such result per row; a (d,) query is cleaned up as a one-row stack and
    gives its one result.
    """
    if query.shape[-1] != dictionary.dim:
        raise ValueError(
            f"query dimension {query.shape[-1]} != dictionary dimension {dictionary.dim}"
        )
    # an int8 stack of signs is cast to float once, exactly, for its norms and its dots
    queries = query.reshape(-1, dictionary.dim).astype(float, copy=False)
    # (m, n) cosines; a pair with a zero-norm side has no direction and scores -inf,
    # so only a stack with such a pair (or a NaN) pays for the masked divide
    scale = dictionary.norms * row_norms(queries)[:, None]
    dots = queries @ dictionary.vectors.T
    if scale.min() > 0:
        sims = dots / scale
    else:
        sims = np.divide(dots, scale, out=np.full(scale.shape, -np.inf), where=scale > 0)
    found = cleanup(sims, np.ones(len(sims)), dictionary.labels)
    return found if query.ndim > 1 else found[0]


def _check_same_dim(x: np.ndarray, y: np.ndarray) -> None:
    # only the hypervector dimension must agree; a (d,) vector broadcasts over
    # an (n, d) stack
    if x.shape[-1:] != y.shape[-1:]:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
