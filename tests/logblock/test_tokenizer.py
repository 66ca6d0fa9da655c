"""Tokenizer tests."""

from hypothesis import given
from hypothesis import strategies as st

from repro.logblock.tokenizer import (
    _TOKEN_RE,
    MAX_TOKEN_LENGTH,
    normalize_term,
    tokenize,
    tokenize_column,
)


def reference_tokenize(text: str) -> list[str]:
    """Per-match lower-casing: the definition ``tokenize`` must equal."""
    return [m.group(0).lower()[:MAX_TOKEN_LENGTH] for m in _TOKEN_RE.finditer(text)]


class TestTokenize:
    def test_simple_words(self):
        assert tokenize("GET request failed") == ["get", "request", "failed"]

    def test_ip_stays_whole(self):
        assert "192.168.0.1" in tokenize("from 192.168.0.1 port 80")

    def test_identifier_connectors(self):
        tokens = tokenize("user_id=42 span-id abc:def")
        assert "user_id" in tokens
        assert "42" in tokens
        assert "span-id" in tokens
        assert "abc:def" in tokens

    def test_path_like(self):
        assert "api/v1/items" in tokenize("POST /api/v1/items done")

    def test_punctuation_dropped(self):
        assert tokenize("!!!") == []
        assert tokenize("(error)") == ["error"]

    def test_lowercasing(self):
        assert tokenize("ERROR Timeout") == ["error", "timeout"]

    def test_empty(self):
        assert tokenize("") == []

    def test_overlong_token_truncated(self):
        token = "a" * 500
        assert tokenize(token) == ["a" * MAX_TOKEN_LENGTH]

    def test_non_ascii_is_matched_before_lowering(self):
        # "İ".lower() is "i" + U+0307 and the Kelvin sign lowers to "k":
        # lowering the whole text first would invent ASCII letters.
        assert tokenize("aİb") == ["a", "b"]
        assert tokenize("\u212aelvin 5\u212a") == ["elvin", "5"]
        assert tokenize("Straße ÉCOLE") == ["stra", "e", "cole"]

    @given(
        st.text(
            alphabet=st.sampled_from("aBz09 ._-:/İ\u212aßé\n"), max_size=3 * MAX_TOKEN_LENGTH
        )
    )
    def test_equals_per_match_reference(self, text):
        assert tokenize(text) == reference_tokenize(text)

    @given(st.text(max_size=300))
    def test_equals_per_match_reference_any_text(self, text):
        assert tokenize(text) == reference_tokenize(text)


# What a text column can hold: nulls, any unicode (no lone surrogates —
# admission refuses those), and the shapes the byte rule could get
# wrong: letters whose ``lower()`` is or grows ASCII, NUL, runs of and
# leading/trailing connectors, overlong tokens, blank values.
column_text = st.one_of(
    st.none(),
    st.text(max_size=40),
    st.text(alphabet=st.sampled_from("aBz09 ._-:/İ\u212aßé\x00\t\n"), max_size=24),
    st.sampled_from(
        [
            "",
            " \t\n",
            "..a..b..",
            "-x:",
            "a._b",
            "q" * (MAX_TOKEN_LENGTH + 7),
            ("Ab9." * MAX_TOKEN_LENGTH) + " tail_",
            "İ\u212a",
        ]
    ),
)


class TestTokenizeColumn:
    @given(st.lists(column_text, max_size=12))
    def test_equals_tokenize_row_by_row(self, values):
        tokens, rows = tokenize_column(values)
        expected = [
            (token, row)
            for row, value in enumerate(values)
            if value is not None
            for token in tokenize(value)
        ]
        assert list(zip(tokens, rows.tolist())) == expected

    def test_nothing_to_tokenize(self):
        for values in ([], [None], ["", None, "  "], ["\x00é"]):
            tokens, rows = tokenize_column(values)
            assert tokens == [] and rows.tolist() == []


class TestNormalizeTerm:
    def test_matches_tokenizer_casing(self):
        assert normalize_term("ERROR") == "error"

    def test_truncation_matches(self):
        assert normalize_term("x" * 500) == "x" * MAX_TOKEN_LENGTH

    @given(st.text(max_size=300))
    def test_query_terms_find_their_source(self, text):
        """Every token emitted at index time must be re-derivable at
        query time — the write/read tokenization agreement."""
        for token in tokenize(text):
            assert normalize_term(token) == token
            assert token in tokenize(text)
