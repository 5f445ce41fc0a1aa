"""Every CLI subcommand's stdout, stderr and exit code, pinned byte for byte.

``cli_pin.json`` holds, for each request of ``REQUESTS``, what ``cli.main``
printed to stdout and stderr and the code it returned, with the terminal
width fixed at ``COLUMNS``.  The requests cover every subcommand in text,
csv and json, at decimal, rational and negative ``--x``, the benchmark's
invalid shapes, the texts the ``--x`` parser must read as ``Fraction``
does, help, requests the option table leaves to argparse, and the points
where an evaluator's result is not finite.  The pin was written by the
CLI as it was before ``--x`` was read straight to a float and each
response written at once, so this test holds that rewrite to the same
bytes; only the rows whose result is not finite were written again, when
such a result became a numeric failure (exit 2), and the successful
``verify`` rows, when ``verify`` gained its ``checked`` column.

argparse words the help and the usage errors, and its wording may move
between Python versions: those requests are compared byte for byte on the
Python version that wrote the pin, and by exit code and stream elsewhere.

Regenerate the pin only for a deliberate change of output:

    PYTHONPATH=src python tests/test_cli_pin.py
"""

import contextlib
import functools
import io
import json
import os
import sys
from pathlib import Path

import pytest

from cfrac import cli

PIN = Path(__file__).with_name("cli_pin.json")
COLUMNS = "80"
FORMATS = ("text", "csv", "json")
X_TEXTS = ("0.7", "5/8", "-17/8", "-0.4")  # decimal, rational, negative rational and decimal


def _requests():
    for function in ("sec-tan", "xcot", "cot"):
        for method in ("adaptive", "backward", "forward", "lentz"):
            for fmt in FORMATS:
                for x in X_TEXTS:
                    yield ["eval", function, f"--x={x}", "--method", method, "--format", fmt]
    for fmt in FORMATS:
        for function in ("sec-tan", "xcot"):
            for x in X_TEXTS:
                yield ["convergents", function, f"--x={x}", "--depth", "12", "--format", fmt]
                yield ["study", function, f"--x={x}", "--max-depth", "16", "--format", fmt]
            for count in ("0", "16"):
                yield ["terms", function, "--count", count, "--format", fmt]
        for order in ("0", "24"):
            yield ["series", "--order", order, "--format", fmt]
        yield ["verify", "all", "--format", fmt]
    yield from (
        ["eval", "sec-tan", "--x", "1"],  # every default
        ["eval", "xcot", "--x", "1", "--method", "lentz", "--depth", "8", "--rel-err", "1e-6"],
        ["convergents", "xcot", "--x=1/3"],
        ["study", "sec-tan", "--x", "1"],
        ["terms", "sec-tan"],
        ["series"],
        ["verify", "pairing", "--max-level", "4"],
        # the benchmark's invalid requests
        *(["eval", "sec-tan", "--x", text] for text in ("abc", "1/0", "nan", "1..5", "0x10")),
        ["verify", "series", "--max-level", "31"],
        ["verify", "nosuch"],
        ["verify", "offset", "--max-level", "32"],
        # --x texts that a float parse and Fraction read differently, or only one of them
        # reads; those Fraction itself reads differently between Python versions ("3 /7",
        # "1_0/3") are in test_cli.py, against the running version's Fraction
        *(["eval", "sec-tan", f"--x={text}", "--format", "csv"] for text in (
            "3/-7", " 3/7 ", "١٢/٣", "-0", "0/5", "1.", ".5", "1e-400", "1e400", "1e5001",
            "inf", "-1e-320", "+3/7", "0012/007", "1.e1", "0." + "0" * 4000 + "1e4300", "1" * 5000)),
        # help, and requests the option table leaves to argparse
        [],
        ["--help"],
        *([name, "--help"] for name in cli._COMMANDS),
        ["eval", "sec-tan", "--x", "-0.4"],
        ["eval", "sec-tan", "--x", "1", "--meth", "backward"],
        ["eval", "sec-tan"],
        ["eval", "sec-tan", "--x", "1", "--bogus"],
        ["terms", "xcot", "--count", "-1"],
        ["nosuch"],
        # numeric failures
        ["eval", "cot", "--x", "0"],
        ["eval", "sec-tan", "--x=1.5707963267948966", "--method", "backward", "--depth", "2"],
        # results that are not finite
        *(["eval", function, "--x=1e200", "--method", method, "--format", fmt]
          for function in ("xcot", "cot") for method in ("backward", "forward") for fmt in FORMATS),
        ["eval", "sec-tan", "--x=1e200", "--method", "forward"],
        ["convergents", "xcot", "--x=1e200", "--depth", "4"],
        ["convergents", "sec-tan", "--x=1e300", "--depth", "4", "--format", "csv"],
        ["convergents", "sec-tan", "--x=1e200", "--depth", "4"],  # huge but finite
    )


REQUESTS = list(_requests())


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@functools.cache
def _pinned():
    pin = json.loads(PIN.read_text())
    return pin["python"], {json.dumps(row["argv"]): row for row in pin["rows"]}


def test_pin_covers_every_request():
    assert list(_pinned()[1]) == [json.dumps(argv) for argv in REQUESTS]


@pytest.mark.parametrize("argv", REQUESTS, ids=lambda argv: " ".join(argv)[:80])
def test_output_is_pinned(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    python, rows = _pinned()
    row, got = rows[json.dumps(argv)], _run(argv)
    worded_by_argparse = (row["stdout"] + row["stderr"]).startswith("usage:")
    if worded_by_argparse and python != "%d.%d" % sys.version_info[:2]:
        assert got["code"] == row["code"]
        assert [bool(got[s]) for s in ("stdout", "stderr")] == [bool(row[s]) for s in ("stdout", "stderr")]
    else:
        assert got == row


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    rows = [_run(argv) for argv in REQUESTS]
    PIN.write_text(json.dumps({"python": "%d.%d" % sys.version_info[:2], "rows": rows}, indent=1) + "\n")
    print(f"wrote {len(rows)} requests to {PIN}")
