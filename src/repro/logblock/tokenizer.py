"""Log-line tokenizer for full-text inverted indexing.

The paper adds "an inverted index based on Lucene" to LogBlock.  We use a
Lucene-StandardAnalyzer-flavoured tokenizer suited to machine logs:
alphanumeric runs (plus a few intra-token connectors common in log
fields, like ``.`` in IPs/hostnames and ``-``/``_`` in identifiers) are
emitted lowercased.  Tokenization is deterministic and shared between
write (index build) and read (query term extraction), which is the only
property the experiments rely on.

Two entry points, one rule.  :func:`tokenize` is the definition — a
regex over one text — and what the read side calls on a query or a row
under test.  :func:`tokenize_column` is what the index build calls: the
same tokens for a whole column, from one pass over its UTF-8 blob
(DESIGN.md §11) and no regex; it is property-tested against
:func:`tokenize` row by row.
"""

from __future__ import annotations

import re

import numpy as np

from repro.common.strings import Strings

# A token is a run of word characters possibly joined by . - _ : /
# (so "192.168.0.1", "user_id", "GET:/api/v1" survive as useful units),
# but trailing/leading connectors are trimmed.
_TOKEN_RE = re.compile(r"[A-Za-z0-9]+(?:[._\-:/][A-Za-z0-9]+)*")

MAX_TOKEN_LENGTH = 128

# The regex's two character classes, per byte of lower-cased UTF-8.
# Everything else — every byte of a non-ASCII character included — is
# class 0 and separates tokens, as such a character does in the regex.
_ALNUM, _CONNECTOR = 1, 2
_BYTE_CLASS = bytes(
    _ALNUM if byte in b"0123456789abcdefghijklmnopqrstuvwxyz"
    else _CONNECTOR if byte in b"._-:/"
    else 0
    for byte in range(256)
)
_SPACE = np.uint8(ord(" "))


def tokenize(text: str) -> list[str]:
    """Split ``text`` into lowercase index terms.

    Overlong tokens are truncated to :data:`MAX_TOKEN_LENGTH` so a single
    pathological log line cannot bloat the term dictionary.

    ASCII text is lower-cased once, before the regex: there ``lower()``
    maps letters to letters one for one, so the matches are the same.
    It is not so beyond ASCII (``"İ".lower()`` grows an ASCII ``i``,
    the Kelvin sign lowers to ``k``), so such text is matched as
    written and only its tokens — always ASCII — are lower-cased.
    """
    if text.isascii():
        tokens = _TOKEN_RE.findall(text.lower())
    else:
        tokens = [token.lower() for token in _TOKEN_RE.findall(text)]
    if len(text) > MAX_TOKEN_LENGTH:
        tokens = [token[:MAX_TOKEN_LENGTH] for token in tokens]
    return tokens


def tokenize_column(values: list | Strings) -> tuple[list[str], np.ndarray]:
    """``(tokens, rows)``: :func:`tokenize` of every value, concatenated,
    and for each token the position of the value it came from.

    ``values`` is a column's :class:`Strings`, or a list of strings
    (``None`` = null) joined into one first.  The blob's NUL separators
    keep tokens of neighbouring values apart; it is lower-cased by
    ``bytes.lower()`` (ASCII letters only, which is all a token holds).
    A byte is kept iff it is alphanumeric, or a connector with an
    alphanumeric byte on both sides — exactly the bytes the regex's
    greedy match covers; every other byte becomes a space and one
    ``split()`` yields the tokens.
    """
    strings = values if isinstance(values, Strings) else Strings.from_values(values)
    lowered = strings.nul_joined().lower()
    blob = np.frombuffer(lowered, dtype=np.uint8)
    kinds = np.frombuffer(lowered.translate(_BYTE_CLASS), dtype=np.uint8)
    # One False of padding each side, so the ends need no special case.
    padded = np.zeros(len(blob) + 2, dtype=bool)
    kept = padded[1:-1]
    np.equal(kinds, _ALNUM, out=kept)
    kept |= (kinds == _CONNECTOR) & padded[:-2] & padded[2:]
    # blob where kept, else a space (uint8 arithmetic wraps and back).
    spaced = blob - _SPACE
    spaced *= kept
    spaced += _SPACE
    tokens = spaced.tobytes().decode("ascii").split()
    # A token starts where ``kept`` turns on and ends where it turns off.
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    starts, ends = edges[0::2], edges[1::2]
    if tokens and int((ends - starts).max()) > MAX_TOKEN_LENGTH:
        tokens = [token[:MAX_TOKEN_LENGTH] for token in tokens]
    # Value i + 1 starts at blob[bounds[i]]; the tokens before it are
    # those of values 0..i.
    bounds = np.cumsum(strings.lengths() + 1)
    per_value = np.diff(np.searchsorted(starts, bounds), prepend=0)
    return tokens, np.repeat(np.arange(len(strings)), per_value)


def normalize_term(term: str) -> str:
    """Normalize a query term the same way indexed terms were normalized."""
    return term.lower()[:MAX_TOKEN_LENGTH]
