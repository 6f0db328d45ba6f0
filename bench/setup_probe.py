"""Time `import isodilation` plus parsing spec texts, in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR < texts.json
Reads a JSON list of spec texts from stdin and prints the seconds from
just before the import to just after the last parse, then the median
time of the speed probe run right after.
"""

import json
import statistics
import sys
import time

texts = json.load(sys.stdin)
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import isodilation  # noqa: E402

for text in texts:
    isodilation.parse_spec(text)
elapsed = time.perf_counter() - start

import speed  # noqa: E402

speed.probe()  # first call pays numpy's lazy set-up
print(repr(elapsed), repr(statistics.median(speed.probe() for _ in range(5))))
