import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hdnav import hdc

D = 1000


def bipolar(seed, d=D):
    return hdc.random_bipolar(d, np.random.default_rng(seed))


# --- random_bipolar ------------------------------------------------------------


def test_random_bipolar_elements_and_determinism():
    x = bipolar(1)
    assert np.all(np.abs(x) == 1.0)
    assert len(x) == D
    assert np.array_equal(x, bipolar(1))
    assert hdc.cosine(x, bipolar(1)) == 1.0


def test_random_bipolar_rejects_zero_dimension():
    with pytest.raises(ValueError, match="dimension"):
        hdc.random_bipolar(0, np.random.default_rng(0))


def test_random_pair_similarity_tail():
    # Monte-Carlo tail estimate: 1e4 pairs at d=1000 stay well inside |cos| < 0.15
    rng = np.random.default_rng(3)
    xs = rng.choice(np.array([-1.0, 1.0]), size=(10_000, D))
    ys = rng.choice(np.array([-1.0, 1.0]), size=(10_000, D))
    sims = (xs * ys).sum(axis=1) / D
    assert np.abs(sims).max() < 0.15
    assert abs(sims.mean()) < 0.005
    assert 0.025 < sims.std() < 0.04  # theoretical 1/sqrt(d) ~ 0.0316


# --- cosine ---------------------------------------------------------------------


def test_cosine_identity_and_antiparallel():
    x = bipolar(4)
    assert hdc.cosine(x, x) == pytest.approx(1.0)
    assert hdc.cosine(x, -x) == pytest.approx(-1.0)


def test_cosine_scale_invariance():
    x, y = bipolar(5), bipolar(6)
    assert hdc.cosine(2.0 * x, y) == pytest.approx(hdc.cosine(x, y))


def test_cosine_zero_norm_rejected():
    with pytest.raises(ValueError, match="zero-norm"):
        hdc.cosine(np.zeros(D), bipolar(7))


def test_cosine_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        hdc.cosine(bipolar(8), bipolar(8, d=999))


# --- sign -----------------------------------------------------------------------


def test_sign_cases():
    assert np.array_equal(hdc.sign(np.array([3.2, -0.1, 0.0])), [1.0, -1.0, 0.0])


def test_sign_of_bipolar_is_identity():
    x = bipolar(9)
    assert np.array_equal(hdc.sign(x), x)


def test_sign_of_cancelling_sum_is_zero():
    x = bipolar(10)
    assert np.array_equal(hdc.sign(x + (-x)), np.zeros(D))


@pytest.mark.parametrize("d", [1, 7, 1000])
def test_random_bipolar_matches_choice_stream(d):
    # same values as rng.choice([-1.0, 1.0], size=d), and the generator
    # is left in the same state, so every later draw is unchanged too
    for seed in range(100):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        x = hdc.random_bipolar(d, ours)
        expected = theirs.choice(np.array([-1.0, 1.0]), size=d)
        assert x.dtype == expected.dtype
        assert np.array_equal(x, expected)
        assert ours.bit_generator.state == theirs.bit_generator.state


# --- bundle ---------------------------------------------------------------------


def test_bundle_similar_to_components():
    rng = np.random.default_rng(11)
    x, y, z = (hdc.random_bipolar(D, rng) for _ in range(3))
    q = hdc.bundle(np.stack([x, y, z]), rng)
    assert np.all(np.abs(q) == 1.0)
    # majority-of-3 agrees with each component 3/4 of the time -> cosine ~ 0.5
    for v in (x, y, z):
        assert 0.35 < hdc.cosine(q, v) < 0.65
    assert abs(hdc.cosine(q, hdc.random_bipolar(D, rng))) < 0.15


def test_bundle_even_count_stays_bipolar():
    rng = np.random.default_rng(12)
    x, y = hdc.random_bipolar(D, rng), hdc.random_bipolar(D, rng)
    assert np.all(np.abs(hdc.bundle(np.stack([x, y]), rng)) == 1.0)


def test_bundle_singleton_is_identity():
    rng = np.random.default_rng(13)
    x = hdc.random_bipolar(D, rng)
    assert np.array_equal(hdc.bundle(x[None, :], rng), x)


def test_bundle_empty_rejected():
    with pytest.raises(ValueError, match="at least one"):
        hdc.bundle(np.empty((0, D)), np.random.default_rng(0))


@pytest.mark.parametrize("n", [1, 2, 8, 9])
def test_bundle_int8_stack_equals_float_stack(n):
    # an int8 stack sums in int16 and adds the tie-break in float: the same map
    # and the same draws as the float sum
    terms = np.stack([bipolar(seed) for seed in range(n)])
    terms[:, :5] = 0.0  # a sign term may be 0
    rng, reference_rng = np.random.default_rng(19), np.random.default_rng(19)
    from_int8 = hdc.bundle(terms.astype(np.int8), rng)
    assert np.array_equal(from_int8, hdc.bundle(terms, reference_rng))
    assert from_int8.dtype == np.float64
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_bundle_int8_stack_row_limit():
    # 2**15 - 1 agreeing rows reach the int16 maximum exactly; one more is refused
    rows = np.ones((2**15 - 1, 3), dtype=np.int8)
    rows[:, 1] = -1
    assert np.array_equal(hdc.bundle(rows, np.random.default_rng(0)), [1.0, -1.0, 1.0])
    with pytest.raises(ValueError, match="int16"):
        hdc.bundle(np.ones((2**15, 3), dtype=np.int8), np.random.default_rng(0))


# --- bind -----------------------------------------------------------------------


def test_bind_self_inverse_identity():
    x = bipolar(14)
    assert np.array_equal(hdc.bind(x, x), np.ones(D))


def test_bind_dissimilar_to_inputs():
    x, y = bipolar(15), bipolar(16)
    assert abs(hdc.cosine(hdc.bind(x, y), x)) < 0.15


def test_bind_releases_bound_value_from_bundle():
    rng = np.random.default_rng(17)
    w, x, y, z = (hdc.random_bipolar(D, rng) for _ in range(4))
    q = hdc.bundle(np.stack([hdc.bind(w, x), hdc.bind(y, z)]), rng)
    released = hdc.bind(w, q)
    fresh = hdc.random_bipolar(D, rng)
    assert hdc.cosine(released, x) > 3 * abs(hdc.cosine(released, fresh))
    assert hdc.cosine(released, x) > 0.3


def test_bind_vector_with_stack_binds_every_row():
    x = bipolar(19)
    stack = np.stack([bipolar(seed) for seed in (20, 21, 22)])
    bound = hdc.bind(x, stack)
    assert bound.shape == (3, D)
    for row, y in zip(bound, stack):
        assert np.array_equal(row, hdc.bind(x, y))


@pytest.mark.parametrize(
    "x_shape,y_shape", [((D,), (D - 1,)), ((D,), (3, D - 1)), ((2, D), (D - 1,))]
)
def test_bind_rejects_last_dimension_mismatch(x_shape, y_shape):
    with pytest.raises(ValueError, match="mismatch"):
        hdc.bind(np.ones(x_shape), np.ones(y_shape))


@given(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_bind_self_inverse_property(seed_x, seed_y):
    x, y = bipolar(seed_x, d=256), bipolar(seed_y, d=256)
    assert np.array_equal(hdc.bind(x, hdc.bind(x, y)), y)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_bind_preserves_similarity_property(seed):
    rng = np.random.default_rng(seed)
    w, x, y = (hdc.random_bipolar(256, rng) for _ in range(3))
    assert hdc.cosine(hdc.bind(w, x), hdc.bind(w, y)) == pytest.approx(
        hdc.cosine(x, y), abs=1e-12
    )


# --- permute --------------------------------------------------------------------


def test_permute_identity_and_full_rotation():
    x = bipolar(18)
    assert np.array_equal(hdc.permute(x, 0), x)
    assert np.array_equal(hdc.permute(x, D), x)


def test_permute_inverse():
    x = bipolar(19)
    assert np.array_equal(hdc.permute(hdc.permute(x, 7), -7), x)


def test_permute_extracts_sequence_position():
    rng = np.random.default_rng(20)
    x, y, z = (hdc.random_bipolar(D, rng) for _ in range(3))
    q = hdc.bundle(np.stack([x, hdc.permute(y, 1), hdc.permute(z, 2)]), rng)
    assert hdc.cosine(hdc.permute(q, -1), y) > 0.1


@given(st.integers(0, 2**31 - 1), st.integers(-512, 512))
@settings(max_examples=25, deadline=None)
def test_permute_preserves_cosine_property(seed, k):
    rng = np.random.default_rng(seed)
    x, y = hdc.random_bipolar(256, rng), hdc.random_bipolar(256, rng)
    assert hdc.cosine(hdc.permute(x, k), hdc.permute(y, k)) == hdc.cosine(x, y)


# --- dictionary / recover -------------------------------------------------------


def _dictionary(rng, n=8):
    vectors = np.stack([hdc.random_bipolar(D, rng) for _ in range(n)])
    return hdc.Dictionary(tuple(f"v{i}" for i in range(n)), vectors)


def test_recover_exact_member():
    rng = np.random.default_rng(21)
    d = _dictionary(rng)
    assert hdc.recover(d.vector("v3"), d) == "v3"


def test_recover_noise_returns_none():
    rng = np.random.default_rng(22)
    d = _dictionary(rng)
    assert hdc.recover(hdc.random_bipolar(D, rng), d) is None


def test_recover_after_unbinding():
    rng = np.random.default_rng(23)
    w, x, y, z = (hdc.random_bipolar(D, rng) for _ in range(4))
    d = hdc.Dictionary(("x", "y", "z", "w"), np.stack([x, y, z, w]))
    q = hdc.bundle(np.stack([hdc.bind(w, x), hdc.bind(y, z)]), rng)
    assert hdc.recover(hdc.bind(w, q), d) == "x"


def test_recover_tie_breaks_to_lowest_index():
    rng = np.random.default_rng(24)
    v = hdc.random_bipolar(D, rng)
    d = hdc.Dictionary(("first", "second"), np.stack([v, v]))
    assert hdc.recover(v, d) == "first"


def test_recover_idempotent_cleanup():
    rng = np.random.default_rng(25)
    d = _dictionary(rng)
    for label in d.labels:
        assert hdc.recover(d.vector(label), d) == label


def test_recover_zero_query_is_none():
    rng = np.random.default_rng(26)
    assert hdc.recover(np.zeros(D), _dictionary(rng)) is None


def test_recover_dimension_mismatch():
    rng = np.random.default_rng(27)
    with pytest.raises(ValueError, match="dimension"):
        hdc.recover(np.ones(12), _dictionary(rng))


def test_dictionary_validation():
    rng = np.random.default_rng(29)
    v = hdc.random_bipolar(D, rng)
    with pytest.raises(ValueError, match="unique"):
        hdc.Dictionary(("a", "a"), np.stack([v, v]))
    with pytest.raises(ValueError, match="empty"):
        hdc.Dictionary((), np.empty((0, D)))


def test_dictionary_caches_row_norms():
    d = _dictionary(np.random.default_rng(30))
    assert np.array_equal(d.norms, np.linalg.norm(d.vectors, axis=1))


def test_dictionary_sign_patterns_are_int8_signs(grid_cml, grid_cells):
    rng = np.random.default_rng(36)
    gaussian = rng.normal(0.0, 1.0, size=(6, D))
    gaussian[2, ::7] = 0.0  # sign(0) = 0 survives the int8 table
    for d in (_dictionary(rng), hdc.Dictionary(tuple(range(6)), gaussian), grid_cells):
        assert d.signs.dtype == np.int8
        assert np.array_equal(d.signs, np.sign(d.vectors).astype(np.int8))
    # the grid model's own sign table is the one a dictionary of its states derives
    assert np.array_equal(grid_cml.signs, grid_cells.signs)


def test_unbinding_a_bipolar_map_keeps_row_norms_bit_for_bit(object_cml, grid_cells):
    # (m_k o_k)^2 == o_k^2 exactly and the reduction order is the same, so the
    # forward readiness check may score its queries with the stored norms
    rng = np.random.default_rng(37)
    stacks = [
        object_cml.state_dictionary().vectors,
        grid_cells.vectors,
        rng.normal(0.0, 1.0, size=(8, D)),
        rng.normal(0.0, 5.0, size=(40, D)),
    ]
    for x in stacks:
        for _ in range(5):
            m = hdc.random_bipolar(D, rng)
            assert np.array_equal(hdc.row_norms(hdc.bind(m, x)), hdc.row_norms(x))


def test_row_norms_bit_equal_linalg_norm(grid_cells):
    rng = np.random.default_rng(34)
    stacks = [
        grid_cells.vectors,  # the trained grid states
        np.stack([bipolar(s) for s in range(9)]),
        rng.normal(0.0, 1.0, size=(50, D)),
        rng.normal(0.0, 3.0, size=(7, 13)),
    ]
    for x in stacks:
        assert np.array_equal(hdc.row_norms(x), np.linalg.norm(x, axis=1))


def test_dictionary_rows_gather_rows_and_norms():
    rng = np.random.default_rng(35)
    d = hdc.Dictionary(
        tuple(f"v{i}" for i in range(12)), rng.normal(0.0, 1.0, size=(12, D))
    )
    rows = [7, 0, 11, 3]
    labels = tuple(d.labels[row] for row in rows)
    sub = hdc.Dictionary(labels, d.vectors[rows])
    assert sub.labels == labels
    # the sub-dictionary's derived tables are the gathered rows of the parent's
    assert np.array_equal(sub.norms, d.norms[rows])
    assert np.array_equal(sub.signs, d.signs[rows])
    assert sub.signs.dtype == np.int8
    assert np.array_equal(sub.vector("v11"), d.vector("v11"))
    assert "v5" not in sub and "v3" in sub
    assert hdc.recover(d.vector("v0"), sub) == "v0"


def _with_zero_entry(first: bool) -> hdc.Dictionary:
    zero, e1, e2 = np.zeros((3, D))
    e1[0], e2[1] = 1.0, 2.0
    if first:
        return hdc.Dictionary(("zero", "one", "two"), np.stack([zero, e1, e2]))
    return hdc.Dictionary(("one", "two", "zero"), np.stack([e1, e2, zero]))


@pytest.mark.parametrize("theta", [0.0, 0.5])
@pytest.mark.parametrize("first", [True, False], ids=["zero_first", "zero_last"])
def test_recover_never_returns_a_zero_entry(monkeypatch, first, theta):
    # a zero-norm entry has no direction: it used to score 0/0 = NaN, which
    # argmax took as the winner for every query
    monkeypatch.setattr(hdc, "THETA", theta)
    d = _with_zero_entry(first)
    e1, orthogonal = np.zeros(D), np.zeros(D)
    e1[0], orthogonal[2] = 3.0, 1.0
    # an orthogonal query scores 0 against "two" (and against "one" too),
    # which clears theta 0 only; the zero entry never wins
    at_zero = None if theta > 0 else "two"
    assert hdc.recover(e1, d) == "one"
    assert hdc.recover(-e1, d) == at_zero
    assert hdc.recover(np.zeros(D), d) is None
    assert hdc.recover(orthogonal, d) == (None if theta > 0 else "one")
    queries = np.stack([e1, -e1, np.zeros(D), orthogonal, d.vector("two")])
    assert hdc.recover(queries, d) == (
        "one", at_zero, None, None if theta > 0 else "one", "two"
    )
    # a sub-dictionary that keeps the zero entry keeps the rule
    sub = hdc.Dictionary(("zero", "one"), np.stack([d.vector("zero"), d.vector("one")]))
    assert hdc.recover(e1, sub) == "one"
    assert hdc.recover(-e1, sub) is None
    assert hdc.recover(np.stack([e1, -e1]), sub) == ("one", None)


@pytest.mark.parametrize("theta", [0.0, 0.5])
def test_recover_from_all_zero_dictionary_is_none(monkeypatch, theta):
    monkeypatch.setattr(hdc, "THETA", theta)
    d = hdc.Dictionary(("a", "b"), np.zeros((2, D)))
    assert hdc.recover(bipolar(38), d) is None
    assert hdc.recover(np.stack([bipolar(38), np.zeros(D)]), d) == (None, None)


def test_cosines_match_recover_scores(monkeypatch):
    # recover picks the entry of largest cosine, as a (d,) query and as a row
    # of an (n, d) stack, and names it only when that cosine clears the floor
    rng = np.random.default_rng(39)
    d = _dictionary(rng)
    queries = rng.normal(0.0, 1.0, size=(5, D))
    queries += 2.0 * d.vectors[[3, 0, 7, 3, 5]]
    cosines = np.array([[hdc.cosine(q, v) for v in d.vectors] for q in queries])
    best = cosines.max(axis=1)
    expected = tuple(d.labels[b] for b in cosines.argmax(axis=1))
    assert expected == tuple(d.labels[b] for b in (3, 0, 7, 3, 5))
    monkeypatch.setattr(hdc, "THETA", 0.0)
    assert hdc.recover(queries, d) == expected
    assert tuple(hdc.recover(q, d) for q in queries) == expected
    theta = float(np.sort(best)[1:3].mean())  # two rows fall below it
    monkeypatch.setattr(hdc, "THETA", theta)
    assert hdc.recover(queries, d) == tuple(
        label if score >= theta else None for label, score in zip(expected, best)
    )
    # a zero query row and a zero entry score -inf, not NaN: the zero entry
    # never wins, and the zero row clears no threshold
    zeroed = hdc.Dictionary(("z",) + d.labels, np.vstack([np.zeros(D), d.vectors]))
    queries[1] = 0.0
    monkeypatch.setattr(hdc, "THETA", 0.0)
    assert hdc.recover(queries, zeroed) == expected[:1] + (None,) + expected[2:]
    # exact ties go to the lowest index
    twins = hdc.Dictionary(("a", "b", "c"), np.stack([d.vectors[1], d.vectors[0], d.vectors[0]]))
    monkeypatch.setattr(hdc, "THETA", 0.5)
    assert hdc.recover(d.vectors[0], twins) == "b"
    assert hdc.recover(np.stack([d.vectors[0], d.vectors[1]]), twins) == ("b", "a")


def reference_vector_recover(query, dictionary, theta):
    """The separate (d,) path that recover had before a vector became a one-row stack."""
    sims = dictionary.vectors @ query
    scale = dictionary.norms * np.linalg.norm(query)
    zero = scale == 0.0
    sims[zero] = -np.inf
    scale[zero] = 1.0
    sims /= scale
    best = int(np.argmax(sims))
    return None if sims[best] < theta else dictionary.labels[best]


def test_vector_recover_matches_the_old_vector_path(monkeypatch, object_cml, grid_cells):
    rng = np.random.default_rng(40)
    states, cells = object_cml.state_dictionary(), grid_cells
    with_zero = hdc.Dictionary(
        states.labels + ("zero",), np.vstack([states.vectors, np.zeros(states.dim)])
    )
    cases = [(states, states.vectors), (cells, cells.vectors), (with_zero, states.vectors)]
    for dictionary, rows in list(cases):
        # noisy copies: the planner's predictions and unbound map queries are
        # approximate; the larger noise falls below the floor for some rows
        for scale in (0.5, 10.0):
            cases.append((dictionary, rows + rng.normal(0.0, scale, rows.shape)))
        cases.append((dictionary, np.zeros((1, dictionary.dim))))
    for theta in (0.0, hdc.THETA):
        monkeypatch.setattr(hdc, "THETA", theta)
        for dictionary, queries in cases:
            found = [hdc.recover(q, dictionary) for q in queries]
            assert found == [reference_vector_recover(q, dictionary, theta) for q in queries]
            assert tuple(found) == hdc.recover(queries, dictionary)
    # the exact rows recover themselves, a zero query recovers nothing
    assert [hdc.recover(v, cells) for v in cells.vectors] == list(cells.labels)
    monkeypatch.setattr(hdc, "THETA", 0.0)
    assert hdc.recover(np.zeros(states.dim), with_zero) is None


def test_recover_stack_dimension_mismatch():
    d = _dictionary(np.random.default_rng(33))
    with pytest.raises(ValueError, match="dimension"):
        hdc.recover(np.ones((2, 12)), d)


# Small integer entries keep every dot product and squared norm exact, so the
# batched and per-row paths must agree bit for bit, ties included.
_nonzero_entries = st.sampled_from([-2.0, -1.0, 1.0, 2.0])
_entries = st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0])


@st.composite
def _recovery_case(draw):
    n = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 12))
    rows = draw(hnp.arrays(np.float64, (n, dim), elements=_nonzero_entries))
    # a trailing dimension that every entry leaves at zero, and a duplicate of
    # row 0 at the end, so the tie and the orthogonal query below are exact
    vectors = np.vstack([np.hstack([rows, np.zeros((n, 1))]), np.append(rows[0], 0.0)])
    m = draw(st.integers(0, 6))
    queries = draw(hnp.arrays(np.float64, (m, dim + 1), elements=_entries))
    orthogonal = np.zeros(dim + 1)
    orthogonal[-1] = 1.0
    queries = np.vstack([queries, np.zeros(dim + 1), orthogonal, vectors[0]])
    theta = draw(st.one_of(st.just(0.0), st.floats(0.01, 0.99)))
    return hdc.Dictionary(tuple(range(n + 1)), vectors), queries, theta


@given(_recovery_case())
@settings(max_examples=200, deadline=None)
def test_recover_stack_matches_per_row_property(case):
    dictionary, queries, theta = case
    with pytest.MonkeyPatch.context() as patch:  # a fixture would outlive one example
        patch.setattr(hdc, "THETA", theta)
        batched = hdc.recover(queries, dictionary)
        assert batched == tuple(hdc.recover(q, dictionary) for q in queries)
    # a zero row recovers nothing, even at theta 0; an orthogonal row scores 0,
    # below any positive theta; the exact tie between row 0 and its duplicate
    # goes to the lowest index
    assert batched[-3:] == (None, None if theta > 0 else 0, 0)
