"""Every script in ``demos/`` and the README's python blocks run to
completion against the package.

The demos and the README call the public API directly
(``solver.plan_steps`` among others), so a changed signature breaks them
without failing any unit test.  Each runs in its own interpreter with
``src`` on the path.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_DEMOS = sorted((_ROOT / "demos").glob("*.py"))


def _run(script: Path, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(script)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", _DEMOS, ids=[p.stem for p in _DEMOS])
def test_demo_exits_0(demo, tmp_path):
    proc = _run(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_python_blocks_exit_0(tmp_path):
    # the blocks in order, as one script: a later block reads the names
    # an earlier one defines
    blocks = re.findall(r"^```python\n(.*?)^```",
                        (_ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) >= 2
    script = tmp_path / "readme.py"
    script.write_text("\n".join(blocks))
    proc = _run(script, tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
