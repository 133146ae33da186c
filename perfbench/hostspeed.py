"""Reference kernel that measures how fast the host runs right now.

On a shared host, other tenants slow this process down by up to about
1.5x for seconds to minutes at a time. The kernel below does the same
kind of work as the stack (small float64 matrix products, softmax and
interpreter overhead) and never calls it, so its time tracks the host's
speed and not the program's. The benchmark times it next to each
set-up and each episode and scales its gated timings to a host on which
the kernel takes ``REFERENCE_MS``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Roughly the kernel's time on a 2-vCPU KVM guest of an Intel Xeon
# (Sapphire Rapids) host while no other tenant slows it. It only sets the
# scale of the gated numbers.
REFERENCE_MS = 8.0


def kernel_ms() -> float:
    rng = np.random.default_rng(0)
    x = rng.normal(size=(24, 64))
    w = rng.normal(size=(64, 64)) * 0.1
    acc: dict = {}
    t0 = perf_counter()
    for i in range(300):
        h = x @ w
        h = h - h.max(axis=1, keepdims=True)
        e = np.exp(h)
        p = e / e.sum(axis=1, keepdims=True)
        x = x - 0.01 * ((p - 1.0 / 64) @ w.T)
        acc[i % 7] = acc.get(i % 7, 0.0) + float(p[0, 0])
    return 1e3 * (perf_counter() - t0)


def sample(repeats: int = 3) -> float:
    """Fastest of a few back-to-back kernel runs, in ms."""
    return min(kernel_ms() for _ in range(repeats))
