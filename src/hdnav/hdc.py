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

Operations are pure; the only mutable argument is the ``numpy`` random
generator passed in explicitly wherever randomness is needed.  Each rule
has one home here: ``_random_signs`` is the one random-sign draw, which
``random_bipolar`` casts to float and ``bundle`` adds as its tie-break; it
reads the same 32-bit word per entry, and the same bit of it, as
``rng.choice([-1.0, 1.0])``, so either draw gives the same vector and
leaves the generator in the same state.  ``sign_pattern`` is the one
int8 sign rule, for a dictionary's rows and the grid's cells alike.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass, field

import numpy as np

# The noise floor of every recovery the layers make, read at call time: at
# d = 1000 it sits about 3.2 sigma above the cosine of a random match.
THETA = 0.1


def random_bipolar(d: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a random vector with each element +/-1 with equal probability."""
    if d < 1:
        raise ValueError(f"hypervector dimension must be >= 1, got {d}")
    return _random_signs(d, rng).astype(float)


def _random_signs(d: int, rng: np.random.Generator) -> np.ndarray:
    """d random int8 signs, ``rng.choice([-1, 1], size=d)``'s pick for each entry.

    The same draws without choice's overhead: both read one 32-bit word w
    per entry, choice takes ``w >> 31``, and the float32 uniform
    ``(w >> 8) / 2**24`` is >= 0.5 exactly when that bit is 1.  The bit b
    becomes the sign 2 b - 1 in place, in the comparison's own buffer.
    """
    signs = (rng.random(d, dtype=np.float32) >= 0.5).view(np.int8)
    signs += signs  # 2 b; a scalar operand would cost a cast check per call
    signs -= 1
    return signs


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
    per-call overhead.
    """
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def sign_pattern(x: np.ndarray) -> np.ndarray:
    """Elementwise sign with sign(0) = 0, as int8: the terms that bind into a map.

    ``np.sign(x).astype(np.int8)`` for real input, formed from two bool
    masks, with no float temporary.
    """
    return (x > 0).view(np.int8) - (x < 0).view(np.int8)


def bundle(vectors: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Signed elementwise sum of the rows of an (n, d) stack, in the sum's own type.

    When the number of summands is even, a fresh random bipolar vector is
    added last to break elementwise ties, so bundles of bipolar inputs
    are always bipolar.  A float stack gives a float bundle.  An int8
    stack holds sign terms (entries -1, 0, +1); it is summed exactly in
    int8, so it must have fewer than 128 rows, and its bundle is int8.
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
        total += _random_signs(len(total), rng)
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
    queries = query.reshape(-1, dictionary.dim)
    # (m, n) cosines; a pair with a zero-norm side has no direction and scores -inf
    scale = dictionary.norms * row_norms(queries)[:, None]
    dots = queries @ dictionary.vectors.T
    sims = np.divide(dots, scale, out=np.full(scale.shape, -np.inf), where=scale > 0)
    found = cleanup(sims, np.ones(len(sims)), dictionary.labels)
    return found if query.ndim > 1 else found[0]


def _check_same_dim(x: np.ndarray, y: np.ndarray) -> None:
    # only the hypervector dimension must agree; a (d,) vector broadcasts over
    # an (n, d) stack
    if x.shape[-1:] != y.shape[-1:]:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
