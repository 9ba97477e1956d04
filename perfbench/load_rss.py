"""Peak RSS growth of loading one table, as a multiple of the loaded array's bytes.

Usage: ``python3 perfbench/load_rss.py TABLE`` with ``src`` on PYTHONPATH.
Runs in a fresh process so the peak before the load is the import baseline.
Prints one JSON object with ``growth_bytes``, ``array_bytes`` and ``ratio``.
The array size comes from the file itself, not from the loaded object, so
the measurement does not depend on how the package stores a table.
"""

import json
import resource
import sys


def array_bytes(path) -> tuple[int, bool]:
    with open(path, encoding="utf-8") as f:
        n, d = (int(t) for t in f.readline().split())
        sequence = f.readline().startswith("#")
        rows = 1 + sum(1 for _ in f)
    return (rows - n if sequence else n) * d * 8, sequence


def main() -> int:
    path = sys.argv[1]
    from metaembed import store

    size, sequence = array_bytes(path)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    table = (store.load_sequence_table if sequence else store.load_vector_table)(path)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    del table
    growth = (after - before) * 1024
    print(json.dumps({"growth_bytes": growth, "array_bytes": size, "ratio": growth / size}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
