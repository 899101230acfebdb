"""Run ``python -m vermatwist.cli`` under the benchmark's speedometer.

    python3 bench/cli_child.py weyl --type B4 --format json

Runs the CLI module as ``__main__`` with these arguments, as
``python -m vermatwist.cli`` does, while the reference loop of
``speed.py`` is timed in this process before and after the command, and
from a timer signal while it computes.  The timer stops at the command's
first write to standard output: a signal that interrupts a large write to
a pipe can cut the output short.  Standard output is the command's own.
Afterwards one line goes to standard error: ``speed <mean of 1 / reference
seconds> <seconds spent in the reference loop>``.
"""

import runpy
import sys

from speed import Speedometer


class _StopTimerOnWrite:
    """Standard output that stops the speedometer's timer before its first write."""

    def __init__(self, stream, speed: Speedometer):
        self._stream = stream
        self._speed = speed

    def write(self, text: str) -> int:
        self._speed.stop_timer()
        return self._stream.write(text)

    def __getattr__(self, name):
        return getattr(self._stream, name)


def main() -> None:
    speed = Speedometer()
    speed.sample()
    sys.stdout = _StopTimerOnWrite(sys.stdout, speed)
    speed.start_timer()
    try:
        runpy.run_module("vermatwist.cli", run_name="__main__", alter_sys=True)
    finally:
        speed.stop_timer()
        speed.sample()
        print(f"speed {speed.speed()} {speed.spent(0.0, float('inf'))}", file=sys.stderr)


if __name__ == "__main__":
    main()
