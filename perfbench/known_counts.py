"""Check the tracer's coverage against known determinant counts.

Runs ``gapode airy-pde``, ``gapode bessel-pde`` and ``gapode pii`` at their
defaults, traced, and compares the Nystrom determinants and matrices the
tracer saw inside each command with counts established independently for
the finite-difference residual checkers.  A wrapper missing from a binding
site would show as a lower count.  Takes about a minute and a half on a
2-vCPU x86-64 machine.  A change to how the checkers differentiate changes
these counts; update them together with that change.

    python3 perfbench/known_counts.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tracer import Tracer, per_command  # noqa: E402
import worker  # noqa: E402

# command -> (fredholm.dets, fredholm.matrices or None when not established)
KNOWN = {
    "gapode airy-pde": (3341, None),
    "gapode bessel-pde": (12537, None),
    "gapode pii": (364, 365),
}


def main():
    commands = [line.split() + ["--check"] for line in KNOWN]
    worker.CLOCK.sample = False  # no probes inside spans
    tracer = Tracer()
    tracer.install()
    try:
        record = worker.run_pass(commands)
    finally:
        tracer.uninstall()
    ok = True
    counts = per_command(tracer.names, tracer.spans())
    for (line, (dets, matrices)), rec, got in zip(KNOWN.items(),
                                                  record["commands"], counts):
        match = (rec["code"] == 0 and got["fredholm.dets"] == dets
                 and matrices in (None, got["fredholm.matrices"]))
        ok = ok and match
        print(f"{'ok' if match else 'MISMATCH':<9} {line}: exit {rec['code']}, "
              f"{rec['wall_s']:.1f} s traced, "
              f"fredholm.dets {got['fredholm.dets']} (known {dets}), "
              f"fredholm.matrices {got['fredholm.matrices']}"
              + (f" (known {matrices})" if matrices else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
