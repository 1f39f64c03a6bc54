"""Fixed reference job that `run.py` times next to every benchmarked job.

It builds a table of 2**19 rows, each a tuple of three ints (about 95 MB
resident, as large as the host's shared L3 cache), then reads one field of
every row in a pseudo-random order that visits each row once (the full-period
linear congruential step j -> 5 j + 1 mod 2**19).  The benchmarked jobs spend
their time the same way: allocating many small tuples and reading them back
from working sets of tens to hundreds of MB.  The code never changes, so the
time it takes measures how fast the machine runs such Python code at that
moment, and the benchmark divides the host's drift out of its timings with it.
Prints the sum of the fields read, which must be 7 * (0 + 1 + ... + (2**19 - 1)).

    python3 perfbench/reference.py
"""

ROWS = 1 << 19


def walk(rows: int) -> int:
    table = [(i, i * 7, i * 13) for i in range(rows)]
    total = j = 0
    for _ in range(rows):
        j = (5 * j + 1) & (rows - 1)
        total += table[j][1]
    return total


if __name__ == "__main__":
    print(walk(ROWS))
