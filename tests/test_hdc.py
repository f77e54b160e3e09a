import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import position, stream
from hdnav import hdc

D = 1000


def bipolar(seed, d=D):
    return hdc.random_bipolar(d, stream(seed))


# --- random_bipolar ------------------------------------------------------------


def test_random_bipolar_elements_and_determinism():
    x = bipolar(1)
    assert np.all(np.abs(x) == 1.0)
    assert len(x) == D
    assert np.array_equal(x, bipolar(1))
    assert hdc.cosine(x, bipolar(1)) == 1.0


def test_random_bipolar_rejects_zero_dimension():
    with pytest.raises(ValueError, match="dimension"):
        hdc.random_bipolar(0, stream(0))


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


# --- sign: a one-row bundle is its row's elementwise sign, drawing no tie-break ---


def test_sign_cases():
    rng = stream(0)
    before = position(rng)
    # sign(0) = 0, float for a float row and int8 for an int8 row
    from_float = hdc.bundle(np.array([[3.2, -0.1, 0.0]]), rng)
    assert from_float.dtype == np.float64
    assert from_float.tolist() == [1.0, -1.0, 0.0]
    from_int8 = hdc.bundle(np.array([[3, -1, 0]], dtype=np.int8), rng)
    assert from_int8.dtype == np.int8
    assert from_int8.tolist() == [1, -1, 0]
    assert position(rng) == before


def test_sign_of_bipolar_is_identity():
    x = bipolar(9)
    assert np.array_equal(hdc.bundle(x[None, :], stream(0)), x)


def test_sign_of_cancelling_sum_is_zero():
    x = bipolar(10)
    zero = hdc.bundle((x + (-x))[None, :], stream(0))
    assert np.array_equal(zero, np.zeros(D))


# --- the stream: numpy's draws from PCG64's raw words -------------------------


def paired(seed, drawn=0):
    """A stream and numpy's generator on the same seed, each having drawn ``drawn``
    32-bit words: an odd count leaves a half-word pending on both."""
    ours, theirs = stream(seed), np.random.default_rng(seed)
    ours.words(drawn)
    theirs.integers(0, 2**32, size=drawn, dtype=np.uint32)
    assert position(ours) == position(theirs)
    return ours, theirs


@pytest.mark.parametrize("drawn", [0, 1, 2, 3])
def test_stream_words_match_numpy_uint32_draws(drawn):
    # odd and even counts, from an even start and from a pending half: the same
    # words in the same order, and the same position after each draw
    for seed in range(20):
        ours, theirs = paired(seed, drawn)
        for n in (1, 2, 12, 7, 0, 1000, 1001, 1):
            words = ours.words(n)
            assert words.dtype == np.uint32
            assert words.tolist() == theirs.integers(0, 2**32, size=n, dtype=np.uint32).tolist()
            assert position(ours) == position(theirs)


def test_stream_words_read_each_output_low_half_first():
    ours, raw = stream(5), np.random.PCG64(5)
    outputs = raw.random_raw(3).tolist()
    halves = [half for out in outputs for half in (out & 0xFFFFFFFF, out >> 32)]
    assert ours.words(5).tolist() == halves[:5]
    assert ours.pending == halves[5]


@pytest.mark.parametrize("d", [1, 2, 7, 1000, 1001])
@pytest.mark.parametrize("drawn", [0, 1])
def test_stream_signs_match_the_float32_uniform(d, drawn):
    # +1 exactly where numpy's float32 uniform is >= 0.5, as int8, with the same
    # position after; a later draw of either kind is unchanged
    for seed in range(20):
        ours, theirs = paired(seed, drawn)
        signs = ours.signs(d)
        expected = (theirs.random(d, dtype=np.float32) >= 0.5).astype(np.int8) * 2 - 1
        assert signs.dtype == np.int8
        assert np.array_equal(signs, expected)
        assert position(ours) == position(theirs)
        assert ours.words(3).tolist() == theirs.integers(0, 2**32, size=3, dtype=np.uint32).tolist()
        assert ours.below(7) == theirs.integers(0, 7)


@pytest.mark.parametrize("drawn", [0, 1])
def test_stream_below_matches_numpy_integers(drawn):
    # numpy's Lemire rule on the stream's words: at 3 * 2**30 a quarter of the words
    # are rejected; a one-value draw reads no word
    for seed in range(20):
        ours, theirs = paired(seed, drawn)
        for n in (5, 1, 2, 39, 60, 3 * 2**30, 2**32 - 1, 2**32, 1, 5):
            for _ in range(5):
                value = ours.below(n)
                assert value == theirs.integers(0, n)
                assert 0 <= value < n
                assert position(ours) == position(theirs)


@pytest.mark.parametrize(
    "bit_generator", [np.random.MT19937, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64]
)
def test_stream_refuses_any_bit_generator_but_pcg64(bit_generator):
    with pytest.raises(TypeError, match="PCG64"):
        hdc.Stream(bit_generator(0))


@pytest.mark.parametrize("d", [1, 2, 7, 1000, 1001])
def test_random_bipolar_matches_choice_stream(d):
    # same values as rng.choice([-1.0, 1.0], size=d), and the stream is left where
    # the generator is, so every later draw is unchanged too; also when one word
    # drawn first leaves half of a 64-bit output pending.  Only PCG64 is covered:
    # a stream refuses PCG64DXSM, MT19937, Philox and SFC64, which the package
    # never draws from
    for drawn in (0, 1):
        for seed in range(100 if drawn == 0 else 10):
            ours, theirs = paired(seed, drawn)
            x = hdc.random_bipolar(d, ours)
            expected = theirs.choice(np.array([-1.0, 1.0]), size=d)
            assert x.dtype == expected.dtype
            assert np.array_equal(x, expected)
            assert position(ours) == position(theirs)
            assert ours.words(1).tolist() == [theirs.integers(0, 2**32, dtype=np.uint32)]
            assert ours.below(2) == theirs.integers(0, 2)


# --- bundle ---------------------------------------------------------------------


def test_bundle_similar_to_components():
    rng = stream(11)
    x, y, z = (hdc.random_bipolar(D, rng) for _ in range(3))
    q = hdc.bundle(np.stack([x, y, z]), rng)
    assert np.all(np.abs(q) == 1.0)
    # majority-of-3 agrees with each component 3/4 of the time -> cosine ~ 0.5
    for v in (x, y, z):
        assert 0.35 < hdc.cosine(q, v) < 0.65
    assert abs(hdc.cosine(q, hdc.random_bipolar(D, rng))) < 0.15


def test_bundle_even_count_stays_bipolar():
    rng = stream(12)
    x, y = hdc.random_bipolar(D, rng), hdc.random_bipolar(D, rng)
    assert np.all(np.abs(hdc.bundle(np.stack([x, y]), rng)) == 1.0)


def test_bundle_singleton_is_identity():
    rng = stream(13)
    x = hdc.random_bipolar(D, rng)
    before = position(rng)
    assert np.array_equal(hdc.bundle(x[None, :], rng), x)
    assert position(rng) == before


def test_bundle_empty_rejected():
    with pytest.raises(ValueError, match="at least one"):
        hdc.bundle(np.empty((0, D)), stream(0))


@pytest.mark.parametrize("n", [1, 2, 8, 9, 126, 127, 128])
def test_bundle_int8_stack_equals_float_stack(n):
    # an int8 stack sums in int8 and adds the tie-break there: the same map, as int8
    # signs, and the same draws as the float sum; from 128 rows it is refused,
    # drawing nothing
    terms = np.stack([bipolar(seed) for seed in range(n)])
    terms[:, :5] = 0.0  # a sign term may be 0
    rng, reference_rng = stream(19), stream(19)
    if n >= 128:
        with pytest.raises(ValueError, match="128 rows"):
            hdc.bundle(terms.astype(np.int8), rng)
        assert position(rng) == position(reference_rng)
        return
    from_int8 = hdc.bundle(terms.astype(np.int8), rng)
    assert np.array_equal(from_int8, hdc.bundle(terms, reference_rng))
    assert from_int8.dtype == np.int8
    assert position(rng) == position(reference_rng)


@pytest.mark.parametrize("n", [126, 127, 128])
def test_bundle_int8_stack_of_agreeing_rows_keeps_its_sign(n):
    # n agreeing rows sum to +/-n: 127 is the int8 maximum, and 128 rows are refused;
    # the third column sums to n // 2, past any tie-break
    rows = np.ones((n, 3), dtype=np.int8)
    rows[:, 1] = -1
    rows[n // 2 :, 2] = 0
    if n >= 128:
        with pytest.raises(ValueError, match="128 rows"):
            hdc.bundle(rows, stream(0))
        return
    assert hdc.bundle(rows, stream(0)).tolist() == [1.0, -1.0, 1.0]


def test_bundle_int8_stack_row_limit():
    # 127 agreeing rows reach the int8 maximum exactly; one more is refused, as is a
    # stack far past it, while a float stack of 128 rows still sums
    rows = np.ones((127, 3), dtype=np.int8)
    rows[:, 1] = -1
    assert np.array_equal(hdc.bundle(rows, stream(0)), [1.0, -1.0, 1.0])
    for n in (128, 2**15):
        with pytest.raises(ValueError, match=f"{n} rows"):
            hdc.bundle(np.ones((n, 3), dtype=np.int8), stream(0))
    assert hdc.bundle(np.ones((128, 3)), stream(0)).tolist() == [1.0] * 3


# --- bind -----------------------------------------------------------------------


def test_bind_self_inverse_identity():
    x = bipolar(14)
    assert np.array_equal(hdc.bind(x, x), np.ones(D))


def test_bind_dissimilar_to_inputs():
    x, y = bipolar(15), bipolar(16)
    assert abs(hdc.cosine(hdc.bind(x, y), x)) < 0.15


def test_bind_releases_bound_value_from_bundle():
    rng = stream(17)
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
    rng = stream(seed)
    w, x, y = (hdc.random_bipolar(256, rng) for _ in range(3))
    assert hdc.cosine(hdc.bind(w, x), hdc.bind(w, y)) == pytest.approx(
        hdc.cosine(x, y), abs=1e-12
    )


# --- permute --------------------------------------------------------------------


def test_permute_identity_and_full_rotation():
    x = bipolar(18)
    assert np.array_equal(hdc.permute(x, 0), x)
    assert np.array_equal(hdc.permute(x, D), x)


@pytest.mark.parametrize("k", [-D - 1, -1, 0, 1, 7, D, D + 1])
def test_permute_is_roll(k):
    for x in (bipolar(21), np.random.default_rng(21).normal(size=D)):
        shifted = hdc.permute(x, k)
        assert shifted.dtype == x.dtype and np.array_equal(shifted, np.roll(x, k))
        assert not np.shares_memory(shifted, x)


def test_permute_inverse():
    x = bipolar(19)
    assert np.array_equal(hdc.permute(hdc.permute(x, 7), -7), x)


def test_permute_extracts_sequence_position():
    rng = stream(20)
    x, y, z = (hdc.random_bipolar(D, rng) for _ in range(3))
    q = hdc.bundle(np.stack([x, hdc.permute(y, 1), hdc.permute(z, 2)]), rng)
    assert hdc.cosine(hdc.permute(q, -1), y) > 0.1


@given(st.integers(0, 2**31 - 1), st.integers(-512, 512))
@settings(max_examples=25, deadline=None)
def test_permute_preserves_cosine_property(seed, k):
    rng = stream(seed)
    x, y = hdc.random_bipolar(256, rng), hdc.random_bipolar(256, rng)
    assert hdc.cosine(hdc.permute(x, k), hdc.permute(y, k)) == hdc.cosine(x, y)


# --- dictionary / recover -------------------------------------------------------


def _dictionary(rng, n=8):
    vectors = np.stack([hdc.random_bipolar(D, rng) for _ in range(n)])
    return hdc.Dictionary(tuple(f"v{i}" for i in range(n)), vectors)


def test_recover_exact_member():
    rng = stream(21)
    d = _dictionary(rng)
    assert hdc.recover(d.vector("v3"), d) == "v3"


def test_recover_noise_returns_none():
    rng = stream(22)
    d = _dictionary(rng)
    assert hdc.recover(hdc.random_bipolar(D, rng), d) is None


def test_recover_after_unbinding():
    rng = stream(23)
    w, x, y, z = (hdc.random_bipolar(D, rng) for _ in range(4))
    d = hdc.Dictionary(("x", "y", "z", "w"), np.stack([x, y, z, w]))
    q = hdc.bundle(np.stack([hdc.bind(w, x), hdc.bind(y, z)]), rng)
    assert hdc.recover(hdc.bind(w, q), d) == "x"


def test_recover_tie_breaks_to_lowest_index():
    rng = stream(24)
    v = hdc.random_bipolar(D, rng)
    d = hdc.Dictionary(("first", "second"), np.stack([v, v]))
    assert hdc.recover(v, d) == "first"


def test_recover_idempotent_cleanup():
    rng = stream(25)
    d = _dictionary(rng)
    for label in d.labels:
        assert hdc.recover(d.vector(label), d) == label


def test_recover_zero_query_is_none():
    rng = stream(26)
    assert hdc.recover(np.zeros(D), _dictionary(rng)) is None


def test_recover_all_nan_query_is_none():
    # a NaN query has no direction: its scale is not positive, so every entry scores -inf
    rng = stream(26)
    d = _dictionary(rng)
    assert hdc.recover(np.full(D, np.nan), d) is None
    assert hdc.recover(np.stack([np.full(D, np.nan), d.vector("v2")]), d) == (None, "v2")


# --- cleanup ---------------------------------------------------------------------


def test_cleanup_ties_go_to_the_lowest_index():
    scores = np.array([[0.5, 0.9, 0.9], [0.9, 0.9, 0.9], [0.2, 0.1, 0.3], [0.4, 0.4, 0.1]])
    assert hdc.cleanup(scores, np.ones(4), "abc") == ("b", "a", "c", "a")


def test_cleanup_score_exactly_at_the_floor_passes():
    norms = np.array([1.0, 3.0, 7.5, 1e-3])
    at = hdc.THETA * norms
    below = np.nextafter(at, -np.inf)
    labels = ("hit", "miss")
    assert hdc.cleanup(np.stack([at, at / 2], axis=1), norms, labels) == ("hit",) * 4
    assert hdc.cleanup(np.stack([below, below / 2], axis=1), norms, labels) == (None,) * 4


def test_cleanup_zero_norm_never_passes(monkeypatch):
    # a zero norm puts the floor at 0, which these scores reach; the rule still refuses
    scores = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
    assert hdc.cleanup(scores, np.zeros(3), "ab") == (None, None, None)
    monkeypatch.setattr(hdc, "THETA", 0.0)
    assert hdc.cleanup(scores, np.zeros(3), "ab") == (None, None, None)
    assert hdc.cleanup(scores, np.ones(3), "ab") == ("a", "a", "b")


def test_cleanup_nan_row_is_none():
    scores = np.array([[np.nan, 1.0], [1.0, np.nan], [np.nan, np.nan], [1.0, 0.5]])
    assert hdc.cleanup(scores, np.ones(4), "ab") == (None, None, None, "a")
    assert hdc.cleanup(scores[3:], np.array([np.nan]), "ab") == (None,)


def test_the_cosine_floor_is_already_an_integer_rule_on_bipolar_vectors():
    # a +-1 query against a +-1 entry has an integer dot and both norms fl(sqrt(d)),
    # so recover's verdict fl(dot / fl(sqrt(d))**2) >= THETA is one integer floor per
    # d: an integer recovery path would decide nothing differently.  At d = 1000 that
    # floor is 10 dot >= d.  Row k of the stack flips the entry's first k signs, so
    # its dots d - 2k, k = 0..d, are every dot two bipolar vectors can have.
    entry = bipolar(40)
    flipped = np.arange(D + 1)[:, None] > np.arange(D)
    queries = np.where(flipped, -entry, entry)
    dots = D - 2 * np.arange(D + 1)
    found = hdc.recover(queries, hdc.Dictionary(("entry",), entry[None]))
    assert [label is not None for label in found] == (10 * dots >= D).tolist()
    # every d of 1000..20000, by recover's arithmetic through cleanup: the verdict is
    # monotone in the dot, so only dots within 3 of d / 10 can tell two floors apart.
    # The floor is THETA fl(sqrt(d))**2, not 10 dot >= d: that differs at 485 of these
    # d (never at 1000), where fl(sqrt(d))**2 > d fails a dot of exactly d / 10.
    # The float rule is the one the layers run; do not "fix" it toward 10 dot >= d.
    d = np.repeat(np.arange(1000, 20001), 7)
    dots = d // 10 + np.tile(np.arange(-3, 4), len(d) // 7)
    scale = np.sqrt(d.astype(float)) ** 2  # recover's norm product, one rounding
    found = hdc.cleanup((dots / scale)[:, None], np.ones(len(d)), ("entry",))
    passed = np.array([label is not None for label in found])
    assert np.array_equal(passed, dots >= hdc.THETA * scale)
    # odd dots too at d = 1000, so a floor one dot low fails as well as one dot high
    assert np.array_equal(passed[d == D], 10 * dots[d == D] >= D)


def test_recover_dimension_mismatch():
    rng = stream(27)
    with pytest.raises(ValueError, match="dimension"):
        hdc.recover(np.ones(12), _dictionary(rng))


def test_dictionary_validation():
    rng = stream(29)
    v = hdc.random_bipolar(D, rng)
    with pytest.raises(ValueError, match="unique"):
        hdc.Dictionary(("a", "a"), np.stack([v, v]))
    with pytest.raises(ValueError, match="empty"):
        hdc.Dictionary((), np.empty((0, D)))


def test_dictionary_caches_row_norms():
    d = _dictionary(stream(30))
    assert np.array_equal(d.norms, np.linalg.norm(d.vectors, axis=1))
    # int8 rows are squared in float: in int8, 100 * 100 would wrap to 16
    assert np.array_equal(hdc.Dictionary(("a",), np.array([[100, 0]], dtype=np.int8)).norms, [100.0])


def test_dictionary_sign_patterns_are_int8_signs(grid_cml, grid_cells):
    rng = stream(36)
    gaussian = np.random.Generator(rng.bit_generator).normal(0.0, 1.0, size=(6, D))
    gaussian[2, ::7] = 0.0  # sign(0) = 0 survives the int8 table
    for d in (_dictionary(rng), hdc.Dictionary(tuple(range(6)), gaussian), grid_cells):
        assert d.signs.dtype == np.int8
        assert np.array_equal(d.signs, np.sign(d.vectors).astype(np.int8))
    # the grid model's own sign table is the one a dictionary of its states derives
    assert np.array_equal(grid_cml.signs, grid_cells.signs)


def test_unbinding_a_bipolar_map_keeps_row_norms_bit_for_bit(object_cml, grid_cells):
    # (m_k o_k)^2 == o_k^2 exactly and the reduction order is the same, so the
    # forward readiness check may score its queries with the stored norms
    rng = stream(37)
    normal = np.random.Generator(rng.bit_generator).normal
    stacks = [
        object_cml.state_dictionary().vectors,
        grid_cells.vectors,
        normal(0.0, 1.0, size=(8, D)),
        normal(0.0, 5.0, size=(40, D)),
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
        np.array([[100, 0], [-12, 5]], dtype=np.int8),  # squares that wrap in int8
    ]
    for x in stacks:
        assert np.array_equal(hdc.row_norms(x), np.linalg.norm(x, axis=1))
    assert np.array_equal(hdc.row_norms(stacks[-1]), [100.0, 13.0])


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
    rng = stream(39)
    d = _dictionary(rng)
    queries = np.random.Generator(rng.bit_generator).normal(0.0, 1.0, size=(5, D))
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
    d = _dictionary(stream(33))
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
