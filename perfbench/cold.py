"""``python -m symlog.cli ARGS`` under a speed probe.

    python3 perfbench/cold.py ARGS

Runs the command line interface as ``-m`` would, then writes the mean
slowdown the probe saw (see speed.py) as the last line of standard error.
The exit code and standard output are the command's own.
"""
import runpy
import sys

from speed import Speed

if __name__ == "__main__":
    speed = Speed().start()
    sys.argv = ["symlog.cli", *sys.argv[1:]]
    try:
        runpy.run_module("symlog.cli", run_name="__main__", alter_sys=True)
    finally:
        speed.stop()
        sys.stdout.flush()
        print(f"\nslowdown {speed.slowdown()!r}", file=sys.stderr)
