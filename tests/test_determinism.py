"""Runtime determinism: a slice of the golden grid is bit-identical whatever
the process's entropy.

Every figure and table is pinned bit-for-bit, so the simulator's output must
be a pure function of the workload and the configuration. This suite checks
that at runtime rather than by reading the source. It runs one slice of the
golden grid in two fresh interpreters. Before either imports ``repro``, it
gives every unseeded entropy source a different value:

* every ``time`` clock (the ``_ns`` variants and ``process_time`` included)
  is replaced by a fake clock whose offset *and* step differ between the runs
  (with equal steps, a value derived from the clock modulo a round number can
  coincide in both runs and hide a leak);
* the global ``random`` instance and numpy's legacy global state are seeded
  differently, and ``np.random.default_rng()`` called without a seed draws a
  different stream (seeded ``random.Random(seed)`` and ``default_rng(seed)``
  keep theirs, as the profiling-noise cells need);
* ``os.urandom``, ``uuid.uuid4`` and ``datetime.now`` return different values;
* ``PYTHONHASHSEED`` differs, so set iteration order differs too.

Fresh interpreters matter: a name bound at import (``from time import
time``), the workload memo and the plan cache cannot hide a difference from
a process that starts empty. The ``sha256`` of ``json.dumps(payload,
sort_keys=True)`` must then agree cell by cell.

The positive control seeds the violation a per-file lint rule cannot see: a
helper module outside the deterministic layers returns a value derived from
``time.time()``, and a ``uvm/`` function on the slice's path adds it to a
simulated time. The two runs' digests must then differ, which shows the
check can fail.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Child-process program: patch every unseeded entropy source with values
#: derived from argv[1], import repro, run the slice, print cell -> digest.
DRIVER = r'''
import datetime
import itertools
import os
import random
import sys
import time
import uuid

import numpy as np

RUN = int(sys.argv[1])


def fake_clock(offset, step):
    ticks = itertools.count()
    return lambda: offset + step * next(ticks)


for index, name in enumerate(("time", "monotonic", "perf_counter", "process_time")):
    clock = fake_clock(1.7e9 / (index + 1) + 123.456 * RUN, 0.0137 * RUN)
    setattr(time, name, clock)
    setattr(time, name + "_ns", lambda clock=clock: int(clock() * 1e9))

random.seed(RUN)
np.random.seed(RUN)
_default_rng = np.random.default_rng
np.random.default_rng = lambda seed=None: _default_rng(RUN if seed is None else seed)
_bytes = random.Random(1000 + RUN)
os.urandom = lambda n: _bytes.randbytes(n)
uuid.uuid4 = lambda: uuid.UUID(int=_bytes.getrandbits(128), version=4)


class FakeDatetime(datetime.datetime):
    @classmethod
    def now(cls, tz=None):
        return cls.fromtimestamp(time.time(), tz)

    @classmethod
    def utcnow(cls):
        return cls.now()

    @classmethod
    def today(cls):
        return cls.now()


datetime.datetime = FakeDatetime

import hashlib
import json

from repro.api import Scenario
from repro.experiments import jsonify
from repro.experiments.figures import figure2_spec
from repro.experiments.sweep import SweepCell, execute_cell
from repro.experiments.tenancy import ArrivalProcess, MultiTenantScenario, Tenant
from repro.registry import POLICY_REGISTRY

cells = {f"bert/{p}": SweepCell("bert", p, scale="ci") for p in POLICY_REGISTRY.available()}
# vit's noisy g10 plan differs from its noiseless one (bert's does not).
cells["vit/g10/e0.1"] = SweepCell("vit", "g10", scale="ci", profiling_error=0.1, seed=0)
cells["figure2"] = figure2_spec("ci").cells[0]
payloads = {name: execute_cell(cell) for name, cell in cells.items()}
tenants = MultiTenantScenario(tenants=(
    Tenant("a", Scenario("bert", "g10", scale="ci"),
           ArrivalProcess.poisson(load=0.5, requests=2)),
    Tenant("b", Scenario("vit", "base_uvm", scale="ci"),
           ArrivalProcess.poisson(load=0.5, requests=2)),
))
payloads["tenancy/2"] = jsonify(tenants.run().to_dict())
print(json.dumps({
    name: hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    for name, payload in payloads.items()
}))
'''

#: The seeded violation: a helper outside the deterministic layers derives a
#: value from the wall clock, bound at import as real code would bind it.
CLOCK_HELPER = '''
from time import time


def wall_jitter():
    return (time() % 1000.0) * 1e-9
'''

#: Appended to the copied ``uvm/migration.py``: every migration's service
#: time now carries the helper's wall-clock value.
LAUNDER = '''

from clock_helper import wall_jitter as _wall_jitter

_clean_service_time = MigrationEngine._service_time


def _laundered_service_time(self, request, inbound, flash):
    return _clean_service_time(self, request, inbound, flash) + _wall_jitter()


MigrationEngine._service_time = _laundered_service_time
'''


def run_slice_twice(pythonpath: str, workdir: Path) -> tuple[dict, dict]:
    """Run the slice in two concurrent fresh interpreters with different entropy."""
    children = []
    for run in (1, 2):
        env = {
            key: value for key, value in os.environ.items()
            if key not in ("REPRO_PLUGINS", "REPRO_CACHE_DIR")
        }
        env.update(PYTHONPATH=pythonpath, PYTHONHASHSEED=str(run))
        children.append(subprocess.Popen(
            [sys.executable, "-c", DRIVER, str(run)],
            cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ))
    digests = []
    for child in children:
        stdout, stderr = child.communicate(timeout=300)
        assert child.returncode == 0, stderr
        digests.append(json.loads(stdout))
    return digests[0], digests[1]


def test_slice_is_bit_identical_under_different_entropy(tmp_path):
    first, second = run_slice_twice(str(SRC), tmp_path)
    assert len(first) >= 10
    differing = sorted(name for name in first if first[name] != second[name])
    assert not differing, f"cells whose output depends on entropy: {differing}"


def test_positive_control_sees_a_laundered_wall_clock(tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(SRC / "repro", copy / "repro")
    with (copy / "repro" / "uvm" / "migration.py").open("a", encoding="utf-8") as fh:
        fh.write(LAUNDER)
    helper = tmp_path / "helper"
    helper.mkdir()
    (helper / "clock_helper.py").write_text(CLOCK_HELPER, encoding="utf-8")

    first, second = run_slice_twice(os.pathsep.join((str(copy), str(helper))), tmp_path)
    assert first.keys() == second.keys()
    assert any(first[name] != second[name] for name in first)
