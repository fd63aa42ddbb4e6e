"""Set-up probe: interpreter start through ``import rgdcheck`` and
``build_model`` for each model of a workload.

    python3 perfbench/setup_probe.py <workload>
    python3 perfbench/setup_probe.py --bare

Prints the ``time.monotonic()`` reading taken once the models are built;
``run.py`` subtracts the reading it took before starting the process.  With
``--bare`` it imports only the standard-library modules that rgdcheck
imports: ``run.py`` times that start next to each set-up as its reference.
"""

import sys
import time

if sys.argv[1] == "--bare":
    import dataclasses, fractions, random, typing  # noqa: E401, F401
else:
    import os

    HERE = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

    import rgdcheck

    from workloads import WORKLOADS

    for spec in WORKLOADS[sys.argv[1]].models:
        rgdcheck.build_model(spec.kind, **dict(spec.params))
print(time.monotonic())
