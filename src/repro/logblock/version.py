"""The LogBlock format versions: the one written and the ones read.

v8 (written) leaves every member's integrity to the pack: its manifest
(v3) holds each member's CRC-32, which ``PackReader.read_member``
checks.  v7 differs in exactly that: its manifest (v2) has no member
CRCs, and its meta, index and Bloom members each begin with their own
CRC-32 (the meta's after its version byte).  The meta decoder and one
``LogBlockReader`` helper branch on :data:`V7` alone, and the pack
manifest on its own ``V2``, so retiring v7 deletes those constants and
each branch that names them.
"""

META_VERSION = 8
V7 = 7
READ_VERSIONS = (V7, META_VERSION)
