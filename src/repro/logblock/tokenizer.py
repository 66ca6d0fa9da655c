"""Log-line tokenizer for full-text inverted indexing.

The paper adds "an inverted index based on Lucene" to LogBlock.  We use a
Lucene-StandardAnalyzer-flavoured tokenizer suited to machine logs:
alphanumeric runs (plus a few intra-token connectors common in log
fields, like ``.`` in IPs/hostnames and ``-``/``_`` in identifiers) are
emitted lowercased.  Tokenization is deterministic and shared between
write (index build) and read (query term extraction), which is the only
property the experiments rely on.
"""

from __future__ import annotations

import re

# A token is a run of word characters possibly joined by . - _ : /
# (so "192.168.0.1", "user_id", "GET:/api/v1" survive as useful units),
# but trailing/leading connectors are trimmed.
_TOKEN_RE = re.compile(r"[A-Za-z0-9]+(?:[._\-:/][A-Za-z0-9]+)*")

MAX_TOKEN_LENGTH = 128


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


def normalize_term(term: str) -> str:
    """Normalize a query term the same way indexed terms were normalized."""
    return term.lower()[:MAX_TOKEN_LENGTH]
