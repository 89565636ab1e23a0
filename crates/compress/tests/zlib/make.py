#!/usr/bin/env python3
"""Write the zlib streams that `tests/zlib_interop.rs` decodes.

Run from this directory: `python3 make.py` (Python 3's `zlib`; these were
written with zlib 1.2.13). Only the streams are committed: the test builds
each input again with the same integer-only generators.
"""
import zlib


def records(n):
    """`n` bytes of dashboard-like JSON: one-minute times, readings drawn
    from a linear congruential generator."""
    out, x, i = bytearray(), 1, 0
    while len(out) < n:
        x = (x * 1103515245 + 12345) % 2**31
        out += b'{"time":%d,"value":%d},' % (1587340800 + 60 * i, x % 1000)
        i += 1
    return bytes(out[:n])


def fibonacci_letters():
    """'a' twice, 'b' three times, 'c' five times, … 's' 10 946 times:
    Fibonacci frequencies, so skewed that Huffman coding alone needs codes
    of 15 bits. (Starting at 1, 1 the ties let zlib build a flatter tree.)"""
    a, b, out = 2, 3, bytearray()
    for k in range(19):
        out += bytes([ord("a") + k]) * a
        a, b = b, a + b
    return bytes(out)


def deflate(data, level, strategy):
    z = zlib.compressobj(level, zlib.DEFLATED, 15, 9, strategy)
    return z.compress(data) + z.flush()


streams = {
    # Level 0: stored blocks (65 531 and 4 469 bytes: more than one LEN
    # field holds).
    "stored.zz": zlib.compress(records(70_000), 0),
    # One fixed-Huffman block.
    "fixed.zz": deflate(records(5_000), 6, zlib.Z_FIXED),
    # The default level: dynamic blocks.
    "dynamic.zz": zlib.compress(records(100_000)),
    "empty.zz": zlib.compress(b""),
    # Huffman only, no matches: one dynamic block with 15-bit codes.
    "long_codes.zz": deflate(fibonacci_letters(), 6, zlib.Z_HUFFMAN_ONLY),
}
for name, stream in streams.items():
    with open(name, "wb") as f:
        f.write(stream)
    print(name, len(stream))
