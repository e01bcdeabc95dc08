"""numpy is not a runtime dependency of the package.

The guard runs one tiny cell on each kernel backend plus one fuzz cell
in a fresh interpreter and checks that nothing imported numpy along
the way (numpy may still be installed as a test-side reference).
"""

import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SCRIPT = """
import sys

import repro
from repro.params import SimScale
from repro.security.fuzz import FuzzJob
from repro.sim.runner import mirza_setup, simulate
from repro.workloads.patterns import DoubleSided

scale = SimScale(8192)
for backend in ("event", "array"):
    result = simulate("tc", mirza_setup(1000, scale), scale, seed=0,
                      backend=backend)
    assert result.total_activations > 0, backend
outcome = FuzzJob(pattern=DoubleSided(victim_row=100, acts=2000),
                  mitigation="mirza-1000").execute()
assert outcome.acts == 2000, outcome
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
assert not loaded, loaded
"""


def test_runtime_never_imports_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    for key in list(env):
        if key.startswith("REPRO_"):
            del env[key]
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
