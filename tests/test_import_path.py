"""The library needs numpy only: every CLI algorithm and ``compare`` run with
scipy blocked, and none of them loads it. The row-block thread pool is made
on first use, so importing the CLI must not load ``concurrent.futures``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import adasamp

SCRIPT = r"""
import json
import os
import sys

sys.modules["scipy"] = None  # any scipy import now raises ImportError

def scipy_loaded():
    return any(module is not None and (name == "scipy" or name.startswith("scipy."))
               for name, module in sys.modules.items())

workdir = sys.argv[1]
steps = {}

def run(*argv):
    from adasamp import cli
    assert cli.main(list(argv)) == 0, argv

def csv(name):
    return os.path.join(workdir, name + ".csv")

import adasamp
steps["import adasamp"] = scipy_loaded()
import adasamp.cli
steps["import adasamp.cli"] = scipy_loaded()
steps["import adasamp.cli: concurrent.futures"] = "concurrent.futures" in sys.modules
for algorithm, flags in (("spgd", ()), ("spgd-fixed", ("--fixed-sample-size", "100")),
                         ("sqp", ())):
    run("run", "--problem", "basic", "--algorithm", algorithm, *flags, "--max-iters", "3",
        "--output", csv(algorithm))
    steps["run " + algorithm] = scipy_loaded()
run("compare", csv("spgd-fixed"), csv("spgd"))
steps["compare"] = scipy_loaded()
for algorithm in ("cvar-extended", "cvar-nested"):
    run("run", "--problem", "portfolio", "--algorithm", algorithm, "--beta", "0.9",
        "--epsilon", "0.1", "--max-iters", "2", "--output", csv(algorithm))
    steps["run " + algorithm] = scipy_loaded()
print(json.dumps(steps))
"""


def test_every_run_and_compare_work_with_scipy_blocked(tmp_path):
    src = str(Path(adasamp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.strip().splitlines()[-1])
    assert steps == {
        "import adasamp": False,
        "import adasamp.cli": False,
        "import adasamp.cli: concurrent.futures": False,
        "run spgd": False,
        "run spgd-fixed": False,
        "run sqp": False,
        "compare": False,
        "run cvar-extended": False,
        "run cvar-nested": False,
    }
