"""What ``import cfrac`` and a one-shot CLI request load, each in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
LAZY = ("cfrac.exact", "json", "csv")  # what an eval request does not need


def _fresh(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def _loaded(code: str) -> dict:
    """The JSON that ``code`` prints, run after noting the modules the interpreter starts with."""
    proc = _fresh("-c", f"import sys\nstartup = set(sys.modules)\n{code}")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_cfrac_leaves_the_exact_layer_unloaded():
    seen = _loaded(
        "import json, cfrac\n"
        "print(json.dumps(['cfrac.core' in sys.modules, 'cfrac.exact' in sys.modules]))"
    )
    assert seen == [True, False]


def test_eval_loads_only_its_own_parser():
    seen = _loaded(
        "import contextlib, io\n"
        "import cfrac.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['eval', 'sec-tan', '--x', '1'])\n"
        "new = sorted(set(sys.modules) - startup)\n"
        "import json\n"
        "print(json.dumps([code, new, cli._command.cache_info().currsize,\n"
        "                  cli._build_parser.cache_info().currsize]))"
    )
    code, new, commands, top = seen
    assert code == 0
    assert [name for name in LAZY if name in new] == []
    assert (commands, top) == (1, 0)  # eval's parser, and no other


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["verify", "all"], "series   pass"),
        (["series", "--order", "2", "--format", "json"], '"coefficient": "1/2"'),
        (["eval", "sec-tan", "--x", "0", "--format", "csv"], "sec-tan,0.0,1.0,"),
    ],
)
def test_one_shot_requests_load_what_they_use(argv, expected):
    proc = _fresh("-m", "cfrac", *argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert expected in proc.stdout


def test_every_public_name_resolves():
    seen = _loaded(
        "import json, types, cfrac\n"
        "from cfrac import *\n"
        "missing = [name for name in cfrac.__all__ if name not in globals()]\n"
        "try:\n"
        "    cfrac.no_such_name\n"
        "    raised = False\n"
        "except AttributeError:\n"
        "    raised = True\n"
        "print(json.dumps([missing, isinstance(cfrac.exact, types.ModuleType),\n"
        "                  cfrac.exact is sys.modules['cfrac.exact'],\n"
        "                  cfrac.convergent_exact is cfrac.exact.convergent_exact,\n"
        "                  sorted(set(cfrac.__all__) - set(dir(cfrac))), raised]))"
    )
    assert seen == [[], True, True, True, [], True]


def test_cfrac_loads_no_typing():
    # -S keeps site (and a .pth it runs) from loading typing first; importing the stdlib
    # modules cfrac uses first lets a Python whose own stdlib loads typing pass
    proc = _fresh(
        "-S", "-c",
        "import sys\n"
        "import argparse, collections, dataclasses, fractions, functools, gettext\n"
        "import itertools, math, os, re, shutil\n"
        "before = 'typing' in sys.modules\n"
        "import cfrac, cfrac.cli, cfrac.exact\n"
        "print(before, 'typing' in sys.modules)",
    )
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert after == before, "importing cfrac loaded typing"
