#!/usr/bin/env python3
"""Best-of-N time per call, in microseconds, of float evaluators and CLI requests.

cfrac is imported from the ``src`` directory given on the command line, so
the same script times any checkout.  Run it once per checkout, alternating
between them, to compare commits on one machine.  Each layer gets one
warm-up call, which fills its term table, then ``--repeat`` runs of
``--number`` calls, or of as many calls as one timed call says fit in
about 0.2 s if that is fewer; the fastest run's mean per call is reported.
The CLI requests print into a discarded buffer.  Prints one JSON object
mapping each layer to its time.

Usage:
    python scripts/bench_layers.py [SRC] [--repeat 5] [--number 2000]
"""

import argparse
import contextlib
import io
import json
import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_SECONDS = 0.2  # caps one run of a slow layer, such as `cfrac verify all`


def layers(cfrac) -> dict:
    """Layer name -> a call of that layer, on the shared spec of each stream."""
    xcot, flat = cfrac.xcot_spec(), cfrac.sec_tan_spec()
    calls = {
        "sec_tan(1.0)": lambda: cfrac.sec_tan(1.0),
        "eval_adaptive(sec-tan, 1.0)": lambda: cfrac.eval_adaptive(flat, 1.0, 1e-12),
        "eval_adaptive(xcot, 0.7)": lambda: cfrac.eval_adaptive(xcot, 0.7, 1e-12),
    }
    for depth in (16, 32, 64):
        calls[f"eval_backward(xcot, 0.7, {depth})"] = lambda d=depth: cfrac.eval_backward(xcot, 0.7, d)
    calls["eval_forward(xcot, 0.7, 32)"] = lambda: cfrac.eval_forward(xcot, 0.7, 32)
    calls["eval_lentz(sec-tan, 1.0)"] = lambda: cfrac.eval_lentz(flat, 1.0, 1e-12, 4096)
    calls["eval_lentz(xcot, 0.7)"] = lambda: cfrac.eval_lentz(xcot, 0.7, 1e-12, 4096)
    for argv in (["eval", "sec-tan", "--x", "1"], ["verify", "all"]):
        calls[f"cli.main({' '.join(argv)})"] = lambda argv=argv: _quiet(cfrac.cli.main, argv)
    return calls


def _quiet(main, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=str(ROOT / "src"), help="directory holding cfrac/")
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--number", type=int, default=2000)
    args = parser.parse_args()

    src = Path(args.src).resolve()
    if not (src / "cfrac" / "__init__.py").is_file():
        parser.error(f"no cfrac package under {src}")
    sys.path.insert(0, str(src))
    import cfrac.cli

    times = {}
    for name, call in layers(cfrac).items():
        call()
        number = max(1, min(args.number, int(RUN_SECONDS / timeit.timeit(call, number=1))))
        best = min(timeit.repeat(call, repeat=args.repeat, number=number))
        times[name] = round(best / number * 1e6, 3)
    print(json.dumps(times, indent=2))


if __name__ == "__main__":
    main()
