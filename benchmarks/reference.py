"""A fixed pure-Python loop, timed in a process of its own.

    python3 benchmarks/reference.py

Reads one number per line from standard input, a number of seconds, and
answers with one line: a JSON list of the seconds each ``reference()``
call took, at least one call and as many as add up to that number.  It
ends when its input closes.

The loop is small-object arithmetic, as matspan's field elements do, and
shares no code with matspan.  ``run.py`` asks for samples before and after
every operation and scales the operation's time by ``REF_S`` over their
mean, so that a drift in the host's speed cancels out.  The loop runs in
its own process, so the state of matspan's heap cannot change its speed.
"""

import gc
import json
import sys
import time

REF_S = 0.008       # seconds one reference() took on the reference host
LOOPS = 100


class _Residue:
    """A stand-in for a field element: every operation makes a new object."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __add__(self, other):
        return _Residue((self.v + other.v) % 65521)

    def __mul__(self, other):
        return _Residue(self.v * other.v % 65521)


_ITEMS = [_Residue(i) for i in range(1, 101)]


def reference():
    """Seconds taken by one pass of the loop."""
    start = time.perf_counter()
    acc = _Residue(0)
    for _ in range(LOOPS):
        for x in _ITEMS:
            acc = acc + x * x
    return time.perf_counter() - start


def main():
    gc.disable()
    for line in sys.stdin:
        owed = float(line)
        samples = [reference()]
        while sum(samples) < owed:
            samples.append(reference())
        print(json.dumps(samples), flush=True)


if __name__ == "__main__":
    main()
