"""Host speed, sampled while the benchmark measures.

On a virtual machine whose host is shared, the same operation runs up to
~1.8x slower for seconds to tens of minutes at a time, from load the guest
cannot see, and each CPU slows independently.  Medians over a run cannot remove that: a slow
period often outlasts the run.  So a daemon thread in the measured process
times a fixed probe every ``PERIOD_S`` by its own thread CPU time, which
such slow periods inflate as they do the program's.  The benchmark pins its
process to one CPU before any thread starts (``run.prepare``), so the probe
and the program always run on the same CPU.  An interval's time at
reference speed is its wall clock times the mean of ``REF_PROBE_S / probe``
over the samples taken inside it, i.e. the integral of the host's relative
speed over the interval.  The probe costs ~2% of one CPU, in every run alike.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import List, Tuple

#: Probe time, in thread CPU seconds, on an idle core of an Intel Xeon at
#: 2.1 GHz; it only sets the scale of the scaled times.
REF_PROBE_S = 1.1e-3
PERIOD_S = 0.05


def _probe() -> None:
    """Fixed dict-heavy Python work, the kind the replay loops do."""
    table: dict = {}
    for i in range(8_000):
        table[i & 1023] = table.get((i * 7) & 1023, 0) + i


class HostSpeed:
    def __init__(self) -> None:
        #: (perf_counter when the probe ended, probe thread CPU seconds)
        self._samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._sample()
        self._thread = threading.Thread(target=self._run, name="perfbench-host-speed",
                                        daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        start = time.thread_time()
        _probe()
        self._samples.append((time.perf_counter(), time.thread_time() - start))

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self._sample()

    def factor(self, start: float, end: float) -> float:
        """Mean host speed over ``[start, end]`` relative to the reference;
        scaled time = wall clock x factor.  An interval shorter than the
        sampling period uses the last sample taken before it ended."""
        samples = list(self._samples)
        inside = [probe for stamp, probe in samples if start <= stamp <= end]
        if not inside:
            inside = [probe for stamp, probe in samples if stamp <= end][-1:]
        return statistics.mean(REF_PROBE_S / probe for probe in inside)

    def close(self) -> None:
        self._stop.set()
        self._thread.join()
