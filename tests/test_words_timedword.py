"""Tests for timed ω-words — Definition 3.2 and the §3.2 embedding."""

import pytest
from hypothesis import given, strategies as st

from repro.words import OMEGA, LassoBatch, TimedWord, Trilean


def simple_lasso(shift=1):
    return TimedWord.lasso([("a", 0)], [("b", 1), ("c", 1)], shift=shift)


class TestConstruction:
    def test_finite_word(self):
        w = TimedWord.finite([("a", 0), ("b", 2)])
        assert w.is_finite and len(w) == 2
        assert w[1] == ("b", 2)

    def test_from_parts_zips(self):
        w = TimedWord.from_parts("abc", [0, 1, 2])
        assert w.take(3) == [("a", 0), ("b", 1), ("c", 2)]

    def test_from_parts_length_mismatch(self):
        with pytest.raises(ValueError):
            TimedWord.from_parts("ab", [0])

    def test_lasso_empty_loop_rejected(self):
        with pytest.raises(ValueError):
            TimedWord.lasso([("a", 0)], [], 1)

    @pytest.mark.parametrize(
        "prefix, loop, shift",
        [
            ([("a", 2), ("a", 1)], [("a", 3)], 1),  # within the prefix
            ([("a", 5)], [("a", 1)], 3),  # prefix into the loop
            ([], [("a", 4), ("a", 3)], 5),  # within the loop
            ([], [("a", 0), ("a", 9)], 1),  # across iterations
            ([], [("a", 2), ("a", 2)], -1),  # negative shift
        ],
        ids=["prefix", "prefix-to-loop", "loop", "iterations", "negative-shift"],
    )
    def test_lasso_time_going_backwards_rejected(self, prefix, loop, shift):
        with pytest.raises(ValueError, match="backwards"):
            TimedWord.lasso(prefix, loop, shift)

    def test_lasso_monotone_edges_accepted(self):
        # Equal times everywhere, and a loop spanning exactly its shift.
        TimedWord.lasso([("a", 1), ("a", 1)], [("a", 1), ("a", 1)], shift=0)
        w = TimedWord.lasso([("a", 0)], [("a", 2), ("b", 5)], shift=3)
        assert w.take(5) == [("a", 0), ("a", 2), ("b", 5), ("a", 5), ("b", 8)]

    def test_lasso_indexing_shifts_times(self):
        w = simple_lasso(shift=2)
        assert w.take(5) == [("a", 0), ("b", 1), ("c", 1), ("b", 3), ("c", 3)]

    def test_infinite_length_is_omega(self):
        assert simple_lasso().length == OMEGA
        with pytest.raises(TypeError):
            len(simple_lasso())


REFUSED_LASSOS = [
    ([("a", 0)], [], 1),  # empty loop
    ([("a", 2), ("a", 1)], [("a", 3)], 1),  # within the prefix
    ([("a", 5)], [("a", 1)], 3),  # prefix into the loop
    ([], [("a", 4), ("a", 3)], 5),  # within the loop
    ([], [("a", 0), ("a", 9)], 1),  # across iterations
    ([], [("a", 2), ("a", 2)], -1),  # negative shift
]


class TestLassoBatch:
    """Lasso words as columns: a sequence of the words appended."""

    WORDS = [
        ([("a", 0), ("b", 2)], [("c", 3)], 0),
        ([], [("a", 1), ("b", 1)], 2),
        ([("x", 4)], [("y", 4)], 1),
        ([("a", 5), ("a", 5)], [("b", 6), ("c", 7)], 1),
    ]

    def batch(self):
        batch = LassoBatch()
        for prefix, loop, shift in self.WORDS:
            batch.append(prefix, loop, shift)
        return batch

    def test_items_are_the_words_appended(self):
        batch = self.batch()
        want = [TimedWord.lasso(*w) for w in self.WORDS]
        assert len(batch) == len(want)
        for i, word in enumerate(want):
            got = batch[i]
            assert (got.prefix, got.loop, got.shift) == (word.prefix, word.loop, word.shift)
        assert list(batch) == want
        assert batch[-1] == want[-1]
        assert LassoBatch.of(want) == batch
        with pytest.raises(IndexError):
            batch[len(want)]

    @pytest.mark.parametrize("lo, hi", [(0, 4), (1, 3), (2, 2), (3, 9), (0, 1)])
    def test_slices_and_pickles_round_trip(self, lo, hi):
        import pickle

        batch = self.batch()
        part = batch[lo:hi]
        assert isinstance(part, LassoBatch)
        assert list(part) == list(batch)[lo:hi]
        assert part == LassoBatch.of(list(batch)[lo:hi])
        assert pickle.loads(pickle.dumps(part)) == part
        assert pickle.loads(pickle.dumps(batch))[lo:hi] == part

    @pytest.mark.parametrize("prefix, loop, shift", REFUSED_LASSOS)
    def test_append_refuses_what_lasso_refuses(self, prefix, loop, shift):
        with pytest.raises(ValueError) as refused:
            TimedWord.lasso(prefix, loop, shift)
        batch = self.batch()
        with pytest.raises(ValueError) as appended:
            batch.append(prefix, loop, shift)
        assert str(appended.value) == str(refused.value)
        assert batch == self.batch()  # nothing of the refused word stays


class TestClassicEmbedding:
    """Section 3.2: classical words embed with τ = 00…0 and are never
    well-behaved — the crisp real-time/classical delimitation."""

    def test_embedding_times_are_zero(self):
        w = TimedWord.from_classic("hello")
        assert all(t == 0 for _s, t in w.take(5))

    def test_embedding_is_a_timed_word(self):
        w = TimedWord.from_classic("hello")
        assert w.is_valid() is Trilean.TRUE

    def test_embedding_is_never_well_behaved(self):
        w = TimedWord.from_classic("hello")
        assert w.is_well_behaved() is Trilean.FALSE

    @given(st.text(alphabet="abc", min_size=1, max_size=20))
    def test_embedding_never_well_behaved_property(self, text):
        assert TimedWord.from_classic(text).is_well_behaved() is Trilean.FALSE


class TestAvailability:
    """Definition 3.3 semantics: σᵢ unavailable before τᵢ."""

    def test_available_by_respects_timestamps(self):
        w = TimedWord.finite([("a", 0), ("b", 3), ("c", 7)])
        assert w.available_by(0) == [("a", 0)]
        assert w.available_by(3) == [("a", 0), ("b", 3)]
        assert w.available_by(10) == w.take(3)

    def test_available_by_on_lasso(self):
        w = TimedWord.lasso([], [("x", 1)], shift=1)
        assert len(w.available_by(5)) == 5

    @given(st.integers(0, 30))
    def test_available_symbols_all_within_bound(self, t):
        w = TimedWord.lasso([("h", 0)], [("x", 2)], shift=3)
        for _s, ti in w.available_by(t):
            assert ti <= t


class TestPredicates:
    def test_valid_detects_nonmonotone(self):
        w = TimedWord.finite([("a", 5), ("b", 3)])
        assert w.is_valid() is Trilean.FALSE

    def test_well_behaved_lasso(self):
        assert simple_lasso(shift=1).is_well_behaved() is Trilean.TRUE
        assert simple_lasso(shift=0).is_well_behaved() is Trilean.FALSE

    def test_occurs_infinitely_on_lasso(self):
        w = simple_lasso()
        assert w.occurs_infinitely("b") is Trilean.TRUE
        assert w.occurs_infinitely("a") is Trilean.FALSE

    def test_occurs_infinitely_finite_word(self):
        w = TimedWord.finite([("f", 0)])
        assert w.occurs_infinitely("f") is Trilean.FALSE

    def test_count_symbol(self):
        w = simple_lasso()
        assert w.count_symbol("b", 7) == 3  # indices 1, 3, 5


class TestEquality:
    def test_finite_equality(self):
        a = TimedWord.finite([("a", 0), ("b", 1)])
        b = TimedWord.finite([("a", 0), ("b", 1)])
        c = TimedWord.finite([("a", 0), ("b", 2)])
        assert a == b and a != c
        assert hash(a) == hash(b)

    def test_lasso_equality_different_representations(self):
        # (ab)^ω with shift 2 == a(ba)^ω suitably phased
        a = TimedWord.lasso([], [("x", 1), ("y", 2)], shift=2)
        b = TimedWord.lasso([("x", 1)], [("y", 2), ("x", 3)], shift=2)
        assert a == b
        assert hash(a) == hash(b)

    def test_lasso_unrolled_equality(self):
        a = TimedWord.lasso([], [("x", 1)], shift=1)
        b = TimedWord.lasso([("x", 1), ("x", 2)], [("x", 3)], shift=1)
        assert a == b

    def test_lasso_different_shift_unequal(self):
        a = TimedWord.lasso([], [("x", 1)], shift=1)
        b = TimedWord.lasso([], [("x", 1)], shift=2)
        assert a != b

    def test_finite_vs_lasso_unequal(self):
        assert TimedWord.finite([("x", 1)]) != TimedWord.lasso([], [("x", 1)], 1)

    def test_equal_up_to(self):
        a = TimedWord.lasso([], [("x", 1)], shift=1)
        b = TimedWord.lasso([], [("x", 1)], shift=2)
        assert a.equal_up_to(b, 1)
        assert not a.equal_up_to(b, 3)

    @given(st.lists(st.tuples(st.sampled_from("ab"), st.integers(0, 9)),
                    min_size=1, max_size=8))
    def test_prefix_word_roundtrip(self, pairs):
        pairs = sorted(pairs, key=lambda p: p[1])
        w = TimedWord.finite(pairs)
        assert w.prefix_word(len(pairs)) == w


class TestTimeSequenceView:
    def test_lasso_view_matches(self):
        w = simple_lasso(shift=4)
        ts = w.time_sequence
        assert ts.take(6) == [t for _s, t in w.take(6)]

    def test_functional_view(self):
        w = TimedWord.functional(lambda i: ("z", 2 * i))
        assert w.time_sequence.take(4) == [0, 2, 4, 6]
