"""Cold start: the screening path imports no scipy submodule.

``scipy.signal`` alone used to be most of ``import repro``; every CLI
call, shard worker and pool worker paid it although screening never
band-limits, fits or optimizes.  The check runs in a fresh
interpreter so modules imported by other tests cannot mask a
regression.
"""

import os
import subprocess
import sys


def test_screening_imports_leave_scipy_unloaded():
    code = ("import sys\n"
            "import repro, repro.campaign, repro.shard.worker\n"
            "print(','.join(sorted(m for m in sys.modules\n"
            "                      if m.startswith('scipy'))))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout.strip()
    assert "scipy.signal" not in out.split(",")
    assert out == "", f"scipy modules loaded: {out}"
