"""Hypervector algebra on bipolar/real vectors.

All values are plain 1-D ``numpy`` float arrays of a shared length ``d``,
which the caller chooses (the config's ``d``); ``bind`` and ``recover``
also take an ``(n, d)`` stack, one hypervector per row, and ``bundle``
sums the rows of one.
Information is carried by direction: two independently drawn random
bipolar vectors of that length are pseudo-orthogonal (cosine 0 +/- 1/sqrt(d)).
The algebra has four basic operations:

- ``bundle``: signed elementwise addition of a stack's rows; the result
  stays similar to every summand.
- ``bind``: elementwise multiplication; the result is dissimilar to both
  inputs but the operation is self-inverse on bipolar vectors.
- ``permute``: circular shift; reversible, used to encode sequence
  position.
- ``recover``: cleanup against a dictionary of known vectors, returning
  the best match at or above the one noise floor ``THETA``.  It scores an
  (m, d) stack by its cosines to every entry in one matrix product; a
  zero-norm entry or query has no direction and never matches.  A (d,)
  query is a one-row stack.

Operations are pure; the only mutable argument is the ``numpy`` random
generator passed in explicitly wherever randomness is needed.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field

import numpy as np

# The noise floor of every recovery the layers make, read at call time: at
# d = 1000 it sits about 3.2 sigma above the cosine of a random match.
THETA = 0.1


def random_bipolar(d: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a random vector with each element +/-1 with equal probability."""
    if d < 1:
        raise ValueError(f"hypervector dimension must be >= 1, got {d}")
    # the same draws as rng.choice([-1.0, 1.0], size=d), without its overhead
    return 2.0 * rng.integers(0, 2, size=d) - 1.0


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


def sign(x: np.ndarray) -> np.ndarray:
    """Elementwise sign with sign(0) = 0."""
    return np.sign(np.asarray(x, dtype=float))


def bundle(vectors: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Signed elementwise sum of the rows of an (n, d) stack.

    When the number of summands is even, a fresh random bipolar vector is
    added last to break elementwise ties, so bundles of bipolar inputs
    are always bipolar.  An int8 stack holds sign terms (entries -1, 0,
    +1); it is summed exactly in int16, so it may have at most 2**15 - 1
    rows, and the tie-break is added in float.
    """
    if len(vectors) == 0:
        raise ValueError("bundle requires at least one vector")
    dtype = float
    if vectors.dtype == np.int8:
        if len(vectors) >= 2**15:
            raise ValueError(f"an int8 bundle sums in int16: {len(vectors)} rows is too many")
        dtype = np.int16
    total = np.add.reduce(vectors, axis=0, dtype=dtype)
    if len(vectors) % 2 == 0:
        total = total + random_bipolar(len(total), rng)
    return sign(total)


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
    the rows' sign patterns ``sign(vectors)`` as int8 (the terms that
    bind into a map).
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
        object.__setattr__(self, "signs", np.sign(self.vectors).astype(np.int8))

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: Hashable) -> bool:
        return label in self._index

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def vector(self, label: Hashable) -> np.ndarray:
        return self.vectors[self._index[label]]


def recover(
    query: np.ndarray, dictionary: Dictionary
) -> Hashable | None | tuple[Hashable | None, ...]:
    """Cleanup: label of the most similar dictionary entry, or None.

    Returns the entry with maximum cosine to ``query`` provided that
    maximum is at least ``THETA``, read at call time; a query below the
    noise floor (or with zero norm) recovers nothing, and a zero-norm
    entry is never recovered.  Exact ties resolve to the lowest index.
    An (n, d) stack of queries is cleaned up in one matrix product and
    gives a tuple with one such result per row; a (d,) query is cleaned up
    as a one-row stack and gives its one result.
    """
    if query.shape[-1] != dictionary.dim:
        raise ValueError(
            f"query dimension {query.shape[-1]} != dictionary dimension {dictionary.dim}"
        )
    queries = query.reshape(-1, dictionary.dim)
    # (m, n) cosines; a pair with a zero-norm side has no direction and scores -inf
    sims = queries @ dictionary.vectors.T
    scale = dictionary.norms * row_norms(queries)[:, None]
    if not scale.all():  # the rare case pays for the mask, the common one does not
        zero = scale == 0.0
        sims[zero] = -np.inf
        scale[zero] = 1.0
    sims /= scale
    labels = dictionary.labels
    # argmax returns the first (lowest) index on ties
    found = tuple(
        None if score < THETA else labels[b]
        for score, b in zip(sims.max(axis=1).tolist(), sims.argmax(axis=1).tolist())
    )
    return found if query.ndim > 1 else found[0]


def _check_same_dim(x: np.ndarray, y: np.ndarray) -> None:
    # only the hypervector dimension must agree; a (d,) vector broadcasts over
    # an (n, d) stack
    if x.shape[-1:] != y.shape[-1:]:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
