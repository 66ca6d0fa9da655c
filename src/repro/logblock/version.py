"""The LogBlock format versions: the one written and the ones read.

v7 (written) stores every integer member as differences at the
narrowest width and checksums its Bloom members.  v6 differs in exactly
those members: raw int64 column blocks, absolute numeric-index arrays
and unchecked Bloom members.  The member decoders take the meta's
version and branch on :data:`V6` alone, so retiring v6 deletes that
constant and each branch that names it.
"""

META_VERSION = 7
V6 = 6
READ_VERSIONS = (V6, META_VERSION)
