"""Set up one workload in a fresh interpreter, as every CLI invocation does.

    python3 bench/setup_probe.py <workload>

``run.py`` times whole runs of this script for the ``setup_s`` metric.
"""

import sys

import checkout

checkout.prepare()

import workloads  # noqa: E402  (needs the checkout's sources on sys.path)

workloads.make(sys.argv[1]).setup()
