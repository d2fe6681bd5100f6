"""Deterministic RNG substreams derived from one 64-bit seed and a tag tuple.

Every random draw in the package flows through :func:`substream`, so any
draw is attributable to a named stream and replays bitwise given the same
seed, regardless of the order in which clients run.

Derivation scheme (documented so an alternate-language port can reproduce
the draws): the seed is encoded as 8 signed big-endian bytes, each tag is
appended as ``b"i" + 8 signed big-endian bytes`` for integers or
``b"s" + utf-8 bytes + b"\\x00"`` for strings, the whole buffer is hashed
with SHA-256, and the first 16 digest bytes (big-endian unsigned) seed a
PCG64 generator.
"""

from __future__ import annotations

import hashlib

import numpy as np

Tag = int | str


def derive_key(seed: int, *tags: Tag) -> int:
    """Map (seed, tags) to a 128-bit integer key. Pure function."""
    buf = bytearray(int(seed).to_bytes(8, "big", signed=True))
    for tag in tags:
        if isinstance(tag, bool):  # bool is an int subclass; reject ambiguity
            raise TypeError("bool tags are not allowed")
        if isinstance(tag, int):
            buf += b"i" + int(tag).to_bytes(8, "big", signed=True)
        elif isinstance(tag, str):
            buf += b"s" + tag.encode("utf-8") + b"\x00"
        else:
            raise TypeError(f"unsupported tag type: {type(tag).__name__}")
    digest = hashlib.sha256(bytes(buf)).digest()
    return int.from_bytes(digest[:16], "big", signed=False)


def substream(seed: int, *tags: Tag) -> np.random.Generator:
    """Return a fresh PCG64 generator for the named substream."""
    return np.random.Generator(np.random.PCG64(derive_key(seed, *tags)))
