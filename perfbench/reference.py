"""A fixed reference loop that measures how fast the machine is right now.

On a shared host the speed a process gets moves by tens of percent over
seconds to minutes as other tenants' load comes and goes. The loop below
does the two kinds of work a solver step does (NumPy arithmetic and slicing
on 1025-node arrays, and interpreter-bound integer arithmetic) and touches
no mhdlab code, so a change to mhdlab cannot change its time. Timings are
scaled by it to what they would be on a machine where one chunk of the loop
takes CHUNK_NOMINAL_S, as on a 2-vCPU Intel Xeon VM (Python 3.11, NumPy 2.4)
whose host is quiet.
"""

import time

import numpy as np

CHUNKS = 100
CHUNK_NOMINAL_S = 4e-4


def reference_loop(chunks=CHUNKS):
    """Seconds taken by each of ``chunks`` equal chunks of the loop."""
    a = np.linspace(0.0, 1.0, 1025)
    b = np.cos(a)
    times = []
    for _ in range(chunks):
        t0 = time.perf_counter()
        for _ in range(2):
            for _ in range(20):
                c = a * b + 0.5
                d = np.empty_like(c)
                d[1:-1] = (c[2:] - c[:-2]) * 0.5
                d[0] = d[-1] = 0.0
                float(np.max(np.abs(d)))
            acc = 0
            for i in range(500):
                acc += i * i
        times.append(time.perf_counter() - t0)
    return times
