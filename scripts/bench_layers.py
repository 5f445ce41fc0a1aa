#!/usr/bin/env python3
"""Best-of-N time per call, in microseconds, of each float evaluation layer.

cfrac is imported from the ``src`` directory given on the command line, so
the same script times any checkout.  Run it once per checkout, alternating
between them, to compare commits on one machine.  Each layer gets one
warm-up call, which fills its term table, then ``--repeat`` runs of
``--number`` calls; the fastest run's mean per call is reported.  Prints
one JSON object mapping each layer to its time.

Usage:
    python scripts/bench_layers.py [SRC] [--repeat 5] [--number 2000]
"""

import argparse
import json
import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
    return calls


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
    import cfrac

    times = {}
    for name, call in layers(cfrac).items():
        call()
        best = min(timeit.repeat(call, repeat=args.repeat, number=args.number))
        times[name] = round(best / args.number * 1e6, 3)
    print(json.dumps(times, indent=2))


if __name__ == "__main__":
    main()
