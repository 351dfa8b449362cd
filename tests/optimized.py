"""The answers of test functions under `python -O`, which strips asserts,
from one interpreter started once per pytest run.

Each module in MODULES declares OPTIMIZED, the names of its functions that
take no argument and return JSON.  The `-O` interpreter imports every module
and calls every declared name once; a test reads its own name's answer with
`run_optimized`, so a name that raised there fails the tests that read it
alone, with its traceback.
"""

import functools
import importlib
import json
import os
import subprocess
import sys
import traceback
from pathlib import Path

import pytest

MODULES = ("test_exit_contract", "test_int_arguments")


def answers():
    """{module: {name: {"answer": name()} or {"error": its traceback}}} for
    each name that each module in MODULES declares, in order."""
    found = {}
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        found[module_name] = {}
        for name in module.OPTIMIZED:
            try:
                found[module_name][name] = {"answer": getattr(module, name)()}
            except Exception:
                found[module_name][name] = {"error": traceback.format_exc()}
    return found


@functools.cache
def optimized_process():
    """[sys.flags.optimize, answers()] from one `python -O` process."""
    here = Path(__file__).resolve().parent
    script = ("import json, sys, optimized; "
              "print(json.dumps([sys.flags.optimize, optimized.answers()]))")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def run_optimized(function):
    """[sys.flags.optimize, the JSON of function()] under `python -O`, for a
    function that its module declares in OPTIMIZED."""
    module = function.__module__.rpartition(".")[2]
    optimize, found = optimized_process()
    answer = found[module][function.__name__]
    if "error" in answer:
        pytest.fail(f"{function.__name__}() raised under python -O:\n"
                    f"{answer['error']}")
    return [optimize, answer["answer"]]
