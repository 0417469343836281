"""The reference routine, run beside the measured work on the same CPU.

    python3 bench/calib.py

Builds a fixed table of 200,000 tuple keys (some tens of MB), prints
"ready", then runs a fixed round of random dict lookups, tuple building,
sorting and string joining over it back to back until SIGTERM. Then it
prints one JSON list of [end, cpu_s] pairs: the monotonic clock when each
round ended and the CPU time the round took.

The round is allocation- and cache-heavy like the package's own code, so a
host that slows the package down by crowding the CPU's caches slows it down
about as much; a small arithmetic loop barely notices.
"""

import json
import random
import signal
import sys
import time

KEYS = 200_000
LOOKUPS = 600
PASSES = 3
# Pause after each round, so the routine takes a small share of the CPU.
PAUSE_S = 10e-3


def main() -> int:
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    rng = random.Random(5)
    keys = [(rng.randrange(10**6), rng.randrange(10**6)) for _ in range(KEYS)]
    table = {k: i for i, k in enumerate(keys)}
    picks = [rng.randrange(KEYS) for _ in range(KEYS)]
    print("ready", flush=True)
    rounds = []
    at = 0
    while not stop:
        # every round starts on keys the previous rounds did not touch, so
        # its first pass finds them out of the near caches whatever else ran
        # in between, and its later passes find them in those caches
        at = (at + LOOKUPS) % (KEYS - LOOKUPS)
        window = picks[at:at + LOOKUPS]
        c = time.thread_time()
        for _ in range(PASSES):
            acc = []
            for j in window:
                k = keys[j]
                acc.append((table[k], str(k[0])))
            acc.sort()
            "".join(x[1] for x in acc)
        rounds.append((time.perf_counter(), time.thread_time() - c))
        time.sleep(PAUSE_S)
    print(json.dumps(rounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
