"""`import ringcc` and building a lockstep ring load only what the lockstep
ring runs; the threaded engine and the multipass reference load on first
use of one of their exports. The command-line front end loads them, and the
experiment harnesses, only in the commands that use them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ringcc

# modules a cold start must not load: `dataclasses` pulls in `inspect`, and
# the threaded engine pulls in `queue`
UNWANTED = ("dataclasses", "inspect", "queue", "ringcc.pipeline", "ringcc.multipass")

CODE = """\
import json, sys
before = set(sys.modules)
import ringcc
ringcc.Ring(ringcc.RingConfig(p=10, s=2400, k=5, auto_age_c=0.5))
loaded = sorted(set(sys.modules) - before)
from ringcc import (ThreadedRing, run_pipelined, static_cc, partition,
                    run_multipass, multipass_labels)
from ringcc.pipeline import ThreadedRing as threaded
from ringcc.multipass import static_cc as reference
print(json.dumps({"loaded": loaded,
                  "same": ThreadedRing is threaded and static_cc is reference}))
"""


def test_import_and_ring_construction_stay_lean():
    # a fresh interpreter, compared against its own module set before the
    # import, so whatever `site` loads at start-up does not count
    src = str(Path(ringcc.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", CODE], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert "ringcc.ring" in report["loaded"]
    assert [m for m in UNWANTED if m in report["loaded"]] == []
    assert report["same"]


CLI_CODE = """\
import json, sys
import ringcc
before = set(sys.modules)
import ringcc.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_no_engine_reference_or_harness():
    src = str(Path(ringcc.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", CLI_CODE], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert "ringcc.cli" in loaded
    unwanted = ("ringcc.pipeline", "queue", "ringcc.multipass", "ringcc.experiments")
    assert [m for m in unwanted if m in loaded] == []


def test_an_unknown_name_is_still_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_export"):
        ringcc.no_such_export
