"""Print how much two concurrent draws slow each other down: the time of
two 20000 x 100 ``standard_normal`` fills run at once on two threads, over
the time of one such fill alone, each the median of seven repeats.

    python tools/two_cpu_check.py

1.0 means two CPUs were free; 2.0 means the process had one CPU's worth of
time, because of its affinity mask or of other load on the host. Speed
measurements of the row-parallel passes are only comparable at similar
readings, so report the reading with every set of runs.

Uses the standard library and numpy only.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

ROWS, COLS, REPEATS = 20000, 100, 7


def fill(out: np.ndarray) -> None:
    np.random.default_rng(0).standard_normal(out=out)


def timed(threads: int, buffers) -> float:
    workers = [threading.Thread(target=fill, args=(buffers[i],)) for i in range(threads)]
    start = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return time.perf_counter() - start


def main() -> int:
    buffers = [np.empty((ROWS, COLS)) for _ in range(2)]
    timed(2, buffers)  # touch the pages before timing
    one = statistics.median(timed(1, buffers) for _ in range(REPEATS))
    two = statistics.median(timed(2, buffers) for _ in range(REPEATS))
    print(f"two-cpu check: {two / one:.2f} (one fill {one * 1e3:.1f} ms, two at once {two * 1e3:.1f} ms)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
