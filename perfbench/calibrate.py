"""A fixed piece of interpreter work, timed to follow the machine's speed.

The benchmark shares a small machine with other tenants; its speed drifts
by a third or more between minutes, more than the program changes it
wants to resolve. The loop below does what the program does most (parse
JSON lines into frozen records, index them in dicts and sets, sort) on
fixed data, so that its time rises and falls with the program's when the
machine does, and never moves when the program changes. It runs between
operations for a fixed share of their time, so that it samples the same
stretch of the machine's behaviour as they do; the mean of its times
follows the mix of fast and slow spells an operation lives through.
"""

import gc
import json
import time
from dataclasses import dataclass

# The loop's time on the machine the bounds were set on (2-core x86-64 VM,
# CPython 3.11); times are reported at this machine speed.
REFERENCE_S = 0.125
# Time spent calibrating before the first operation, and after each
# operation as a share of its time.
FIRST_S = 0.5
SHARE = 0.2


@dataclass(frozen=True)
class _Cite:
    src_paper: str
    src_theorem: str
    dst_paper: str
    dst_theorem: str


_LINES = [json.dumps({"src_paper": f"p{i * 7919 % 20000:06d}", "src_theorem": f"thm {i % 7}",
                      "dst_paper": f"p{i * 104729 % 20000:06d}", "dst_theorem": f"lemma {i % 5}"})
          for i in range(20000)]


def calibration_s() -> float:
    t0 = time.perf_counter()
    cites = [_Cite(**json.loads(line)) for line in _LINES]
    index = {(c.src_paper, c.src_theorem): k for k, c in enumerate(cites)}
    sorted({(index[(c.src_paper, c.src_theorem)], index.get((c.dst_paper, c.dst_theorem), -1))
            for c in cites})
    return time.perf_counter() - t0


def calibrate(seconds: float) -> list:
    """Times of the loop, repeated for ``seconds`` (at least once).

    The cyclic garbage collector is paused so that the loop's time does
    not depend on how many objects the calling process holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        end = time.perf_counter() + seconds
        out = [calibration_s()]
        while time.perf_counter() < end:
            out.append(calibration_s())
    finally:
        if enabled:
            gc.enable()
    return out
