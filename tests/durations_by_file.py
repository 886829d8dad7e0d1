"""Tier-1's time by test file, from pytest's durations report.

    PYTHONPATH=src python -m pytest -q -p no:cacheprovider --durations=0 \\
        | python tests/durations_by_file.py

Reads the output of `pytest --durations=0` on stdin, sums each test file's
setup, call and teardown seconds, and prints one line a file, largest first,
then the total. pytest hides durations under 5 ms unless run with -vv, so the
sums leave those out. This script is not part of the test suite.
"""

import re
import sys
from collections import Counter

# "1.23s call     tests/test_x.py::TestY::test_z[param]"
DURATION = re.compile(r"^(\d+(?:\.\d+)?)s (?:setup|call|teardown)\s+([^:\s]+)::")


def by_file(lines) -> Counter:
    """Test file -> summed seconds, over the duration lines of lines."""
    seconds = Counter()
    for line in lines:
        m = DURATION.match(line)
        if m:
            seconds[m.group(2)] += float(m.group(1))
    return seconds


def main() -> int:
    seconds = by_file(sys.stdin)
    if not seconds:
        print("no duration lines on stdin: run pytest with --durations=0", file=sys.stderr)
        return 1
    width = max(map(len, seconds))
    for path, s in seconds.most_common():
        print(f"{path:<{width}}  {s:7.2f} s")
    print(f"{'total':<{width}}  {sum(seconds.values()):7.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
