"""Reference implementations that the product code is pinned against.

Each module here keeps a straightforward (slow) spelling of a structure
the library now builds another way; tests compare the two exactly.
"""
