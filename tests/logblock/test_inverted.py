"""Inverted index tests."""

import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import SerializationError
from repro.logblock.inverted import InvertedIndex, InvertedIndexBuilder
from repro.logblock.tokenizer import MAX_TOKEN_LENGTH, tokenize


class ReferenceIndex:
    """The per-row builder the columnar pipeline replaced; the
    differentials below hold the columnar build to its terms and
    postings."""

    def __init__(self, tokenize_values: bool) -> None:
        self.tokenize = tokenize_values
        self.postings: dict[str, list[int]] = {}
        self.row_count = 0

    def add(self, row_id: int, value) -> None:
        self.row_count = max(self.row_count, row_id + 1)
        if value is None:
            return
        for term in set(tokenize(value)) if self.tokenize else (value,):
            bucket = self.postings.setdefault(term, [])
            if not bucket or bucket[-1] != row_id:
                bucket.append(row_id)

    def add_many(self, start_row_id: int, values) -> None:
        for offset, value in enumerate(values):
            self.add(start_row_id + offset, value)

    def lookup(self, term: str) -> list[int]:
        return self.postings.get(term, [])

    def agrees_with(self, index: InvertedIndex) -> bool:
        """Same row count, flag, terms and posting lists."""
        return (
            index.row_count == self.row_count
            and index.tokenized == self.tokenize
            and index.terms() == sorted(self.postings)
            # Stored terms are already normalized.
            and all(index.lookup(term).tolist() == rows for term, rows in self.postings.items())
        )


def build(values: list[str | None], tokenize_values: bool) -> InvertedIndex:
    builder = InvertedIndexBuilder(tokenize=tokenize_values)
    for row_id, value in enumerate(values):
        builder.add(row_id, value)
    return builder.build()


class TestExactMatchIndex:
    def test_lookup(self):
        index = build(["a", "b", "a", None, "c"], tokenize_values=False)
        assert list(index.lookup("a")) == [0, 2]
        assert list(index.lookup("b")) == [1]
        assert list(index.lookup("zzz")) == []

    def test_exact_match_is_case_sensitive(self):
        """Untokenized indexes store raw values: exact-match semantics
        must agree byte-for-byte with scan-path ``==``."""
        index = build(["ERROR"], tokenize_values=False)
        assert list(index.lookup("ERROR")) == [0]
        assert list(index.lookup("error")) == []

    def test_tokenized_lookup_is_case_insensitive(self):
        index = build(["ERROR happened"], tokenize_values=True)
        assert list(index.lookup("error")) == [0]
        assert list(index.lookup("Error")) == [0]

    def test_nulls_not_indexed(self):
        index = build([None, None], tokenize_values=False)
        assert index.term_count == 0
        assert index.row_count == 2

    def test_prefix_lookup(self):
        index = build(["apple", "apricot", "banana"], tokenize_values=False)
        assert list(index.lookup_prefix("ap")) == [0, 1]
        assert list(index.lookup_prefix("z")) == []


class TestFullTextIndex:
    def test_match_all(self):
        index = build(
            ["error timeout on api", "error ok", "all fine here"], tokenize_values=True
        )
        assert list(index.match_all(["error"])) == [0, 1]
        assert list(index.match_all(["error", "timeout"])) == [0]
        assert list(index.match_all(["error", "fine"])) == []

    def test_match_any(self):
        index = build(["alpha beta", "gamma", "beta gamma"], tokenize_values=True)
        assert list(index.match_any(["alpha", "gamma"])) == [0, 1, 2]

    def test_duplicate_terms_in_doc_stored_once(self):
        index = build(["spam spam spam"], tokenize_values=True)
        assert list(index.lookup("spam")) == [0]

    def test_empty_terms_matches_all(self):
        index = build(["a", "b"], tokenize_values=True)
        assert index.match_all([]).tolist() == [0, 1]


class TestSerialization:
    def test_roundtrip(self):
        index = build(["error timeout", None, "error ok"], tokenize_values=True)
        decoded = InvertedIndex.from_bytes(index.to_bytes())
        assert decoded.row_count == index.row_count
        assert decoded.tokenized == index.tokenized
        assert decoded.terms() == index.terms()
        for term in index.terms():
            assert list(decoded.lookup(term)) == list(index.lookup(term))

    @given(
        st.lists(
            st.one_of(st.none(), st.text(alphabet="abc xyz0", max_size=20)),
            max_size=50,
        )
    )
    def test_property_consistency(self, values):
        """Index lookups agree with direct tokenization of the rows."""
        index = build(values, tokenize_values=True)
        decoded = InvertedIndex.from_bytes(index.to_bytes())
        for term in decoded.terms():
            expected = [
                row_id
                for row_id, value in enumerate(values)
                if value is not None and term in tokenize(value)
            ]
            assert list(decoded.lookup(term)) == expected


# -- the columnar pipeline against the per-row reference ---------------------

LONG = "x" * (MAX_TOKEN_LENGTH + 5)
# Small alphabets so terms repeat across rows; İ / K / ß change under
# str.lower(), LONG tokens differ only past the truncation point.
words = st.sampled_from(
    ["error", "Error", "GET", "10.0.0.1", "a", "b", "İ", "\u212a", "ß", "é", LONG, LONG + "y", ""]
)
tokenized_values = st.one_of(
    st.none(),
    st.lists(words, max_size=6).map(" ".join),
    st.text(alphabet="aB0 .-İ\u212aß", max_size=12),
)
raw_values = st.one_of(st.none(), words, st.text(alphabet="abİ ", max_size=3))


def batches(values):
    """Lists of calls: ("many", [values]) | ("one", value) | ("again",)."""
    return st.lists(
        st.one_of(
            st.tuples(st.just("many"), st.lists(values, max_size=8)),
            st.tuples(st.just("one"), values),
            st.tuples(st.just("again")),  # re-add the previous row's value
        ),
        max_size=8,
    )


def replay(calls, tokenize_values: bool):
    """Feed the same call sequence to the new builder and the reference."""
    new, ref = InvertedIndexBuilder(tokenize=tokenize_values), ReferenceIndex(tokenize_values)
    next_row, last = 0, None
    for call in calls:
        for builder in (new, ref):
            if call[0] == "many":
                builder.add_many(next_row, call[1])
            elif call[0] == "one":
                builder.add(next_row, call[1])
            elif last is not None:
                builder.add(*last)
        if call[0] == "many" and call[1]:
            next_row += len(call[1])
            last = (next_row - 1, call[1][-1])
        elif call[0] == "one":
            next_row += 1
            last = (next_row - 1, call[1])
    return new.build(), ref


class TestAgainstReference:
    @given(batches(tokenized_values))
    def test_tokenized_index_equals_reference(self, calls):
        index, ref = replay(calls, tokenize_values=True)
        assert ref.agrees_with(index)
        assert ref.agrees_with(InvertedIndex.from_bytes(index.to_bytes()))

    @given(batches(raw_values))
    def test_raw_index_equals_reference(self, calls):
        index, ref = replay(calls, tokenize_values=False)
        assert ref.agrees_with(index)
        assert ref.agrees_with(InvertedIndex.from_bytes(index.to_bytes()))

    def test_empty_index(self):
        for tokenize_values in (True, False):
            index, ref = replay([], tokenize_values)
            decoded = InvertedIndex.from_bytes(index.to_bytes())
            assert ref.agrees_with(decoded)
            assert decoded.term_count == 0 and decoded.row_count == 0
            assert list(decoded.lookup("a")) == [] and list(decoded.lookup_prefix("")) == []
            assert decoded.match_all(["a"]).size == 0 == decoded.match_any(["a"]).size

    def test_wide_deltas_and_many_postings(self):
        """Posting lists with multi-byte deltas and multi-byte counts."""
        values = ["hot" if i % 3 else "hot cold" for i in range(700)] + [None] * 40_000 + ["cold"]
        index, ref = replay([("many", values)], tokenize_values=True)
        decoded = InvertedIndex.from_bytes(index.to_bytes())
        assert ref.agrees_with(decoded)
        assert decoded.lookup("cold").tolist() == ref.lookup("cold")

    def test_more_terms_than_16_bit_sort_keys(self):
        values = [f"t{i % 70_000:05d}" for i in range(75_000)]
        index, ref = replay([("many", values)], tokenize_values=False)
        assert index.term_count == 70_000
        assert ref.agrees_with(InvertedIndex.from_bytes(index.to_bytes()))

    def test_descending_row_ids_cannot_be_serialized(self):
        builder = InvertedIndexBuilder(tokenize=False)
        builder.add(5, "a")
        builder.add(3, "a")
        with pytest.raises(ValueError):
            builder.build().to_bytes()

    @given(batches(tokenized_values), st.lists(words, max_size=4))
    def test_decoded_queries_equal_reference(self, calls, probes):
        built, ref = replay(calls, tokenize_values=True)
        decoded = InvertedIndex.from_bytes(built.to_bytes())
        probes = probes + sorted(ref.postings)[:4]
        for index in (built, decoded):
            assert index.terms() == sorted(ref.postings)
            assert index.row_count == ref.row_count
            for probe in probes:
                term = probe.lower()[:MAX_TOKEN_LENGTH]
                assert index.lookup(probe).tolist() == ref.lookup(term)
                prefix_rows = sorted(
                    {row for t, rows in ref.postings.items() if t.startswith(term) for row in rows}
                )
                assert index.lookup_prefix(probe).tolist() == prefix_rows
            every = [set(ref.lookup(p.lower()[:MAX_TOKEN_LENGTH])) for p in probes]
            all_rows = set(range(ref.row_count)).intersection(*every)
            assert list(index.match_all(probes)) == sorted(all_rows)
            assert list(index.match_any(probes)) == sorted(set().union(*every))

    @given(batches(raw_values), st.lists(raw_values.filter(lambda v: v is not None), max_size=3))
    def test_decoded_raw_queries_equal_reference(self, calls, probes):
        built, ref = replay(calls, tokenize_values=False)
        decoded = InvertedIndex.from_bytes(built.to_bytes())
        for index in (built, decoded):
            for probe in probes + sorted(ref.postings)[:3]:
                assert index.lookup(probe).tolist() == ref.lookup(probe)
                prefix_rows = sorted(
                    {row for t, rows in ref.postings.items() if t.startswith(probe) for row in rows}
                )
                assert index.lookup_prefix(probe).tolist() == prefix_rows


# -- the sectioned dictionary: byte order is string order -------------------

# Code points on both sides of every UTF-8 length boundary, and astral
# ones, whose UTF-16 order differs from their code-point order.
odd_text = st.text(
    alphabet=st.sampled_from("aZ~\x7f\x80\u07ff\u0800\uffff\U00010000\U0001f600\U0010ffffé"),
    max_size=4,
)
raw_terms = st.one_of(odd_text, st.just("é" * 70), st.just("x" * 128), st.just("x" * 200))


class TestSectionedDictionary:
    @given(st.lists(raw_terms, max_size=12), st.lists(raw_terms, max_size=4))
    def test_bisecting_bytes_is_bisecting_strings(self, values, probes):
        decoded = InvertedIndex.from_bytes(build(values, tokenize_values=False).to_bytes())
        assert decoded.terms() == sorted(set(values))
        for probe in probes + values[:4]:
            rows = [row for row, value in enumerate(values) if value == probe]
            assert decoded.lookup(probe).tolist() == rows
            prefixed = [row for row, value in enumerate(values) if value.startswith(probe)]
            assert decoded.lookup_prefix(probe).tolist() == prefixed

    @given(st.lists(st.sampled_from(["x" * 127, "x" * 128, "x" * 129 + "y", "İ ß", "a-b"]), max_size=6))
    def test_tokenized_roundtrip_with_terms_at_the_truncation_length(self, values):
        built = build(values, tokenize_values=True)
        decoded = InvertedIndex.from_bytes(built.to_bytes())
        assert decoded.terms() == built.terms() == sorted({t for v in values for t in tokenize(v)})
        for term in decoded.terms():
            assert decoded.lookup(term).tolist() == built.lookup(term).tolist()
            assert len(term.encode()) <= MAX_TOKEN_LENGTH

    def test_single_term(self):
        decoded = InvertedIndex.from_bytes(build(["only"], tokenize_values=False).to_bytes())
        assert decoded.terms() == ["only"] and decoded.lookup("only").tolist() == [0]
        assert decoded.lookup("onlx").size == decoded.lookup("onlz").size == 0

    def test_lone_surrogate_probe_is_absent_not_an_error(self):
        index = build(["\ud7ff", "\ue000"], tokenize_values=False)
        assert index.lookup("\ud800").size == 0
        assert index.lookup_prefix("\udfff").size == 0

    def test_match_all_stops_at_an_absent_term_before_decoding(self, monkeypatch):
        index = build(["error timeout", "error ok"], tokenize_values=True)
        monkeypatch.setattr(
            InvertedIndex, "_rows_of", lambda *a: pytest.fail("decoded a posting list")
        )
        assert index.match_all(["error", "absent"]).size == 0


def python_level_calls(function) -> int:
    """Calls (python and C functions alike) made while ``function`` runs."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.setprofile(count)
    try:
        function()
    finally:
        sys.setprofile(None)
    return calls


def wide_index(n_terms: int) -> InvertedIndex:
    """``n_terms`` terms plus one in every row: either size has two-byte
    posting counts and deltas, so both decode along the same branches."""
    return build([f"hot t{i:05d}" for i in range(n_terms)] + ["hot"] * 300, tokenize_values=True)


class TestProbeDontParse:
    """The format's point, as exact counts: opening an index costs the
    same handful of array kernels whatever its term count."""

    def test_from_bytes_does_no_per_term_work(self):
        small, large = wide_index(100).to_bytes(), wide_index(10_000).to_bytes()
        InvertedIndex.from_bytes(small)  # warm numpy's lazy imports
        calls = [
            python_level_calls(lambda: InvertedIndex.from_bytes(blob)) for blob in (small, large)
        ]
        assert calls[0] == calls[1] and calls[0] < 100

    def test_lookup_is_logarithmic(self):
        small = InvertedIndex.from_bytes(wide_index(100).to_bytes())
        large = InvertedIndex.from_bytes(wide_index(10_000).to_bytes())
        for index in (small, large):
            assert index.lookup("t00042").tolist() == [42]
        calls = [python_level_calls(lambda: index.lookup("t00042")) for index in (small, large)]
        # 100x the terms is 7 more bisection steps; none of them calls.
        assert calls[1] <= calls[0] + 7 and calls[1] < 60


def damage_sample() -> InvertedIndex:
    """What the corruption tests damage (v4: ``tests/formats``)."""
    values = ["error GET 10.0.0.1", None, "error " + LONG, "é ß b"] * 40
    return replay([("many", values)], True)[0]


def answers(index: InvertedIndex):
    return (
        index.row_count,
        index.terms(),
        [index.lookup(term).tolist() for term in ("error", "get", "b", LONG, "absent")],
        index.lookup_prefix("1").tolist(),
        list(index.match_all(["error", "get"])),
    )


class TestCorruptPayloads:
    def test_row_id_outside_the_index_raises(self):
        builder = InvertedIndexBuilder(tokenize=False)
        builder.add(9, "a")
        data = bytearray(builder.build().to_bytes())
        data[1:5] = (5).to_bytes(4, "little")  # the row count, past the flags
        with pytest.raises(SerializationError):
            InvertedIndex.from_bytes(bytes(data)).lookup("a")

    def test_lookup_results_are_int64(self):
        decoded = InvertedIndex.from_bytes(damage_sample().to_bytes())
        assert decoded.lookup("error").dtype == np.int64
        assert decoded.lookup("absent").dtype == np.int64
