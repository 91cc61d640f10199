import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _files() -> set:
    return {path for folder in ("perfbench", "src") for path in (ROOT / folder).rglob("*")}


def test_byte_audit_of_a_checkout_against_itself_finds_no_difference():
    before = _files()
    # with bytecode writing on, as it is by default
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "byte_audit.py"), str(ROOT),
                           str(ROOT), "--blocks", "1", "--seeds", "101"],
                          capture_output=True, text=True, env=env, timeout=300, check=False)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == ("sweep: 0 of 13 argvs differ\n"
                           "evolve: 0 of 9 argvs differ\n"
                           "verify: 0 of 9 argvs differ\n"
                           "report: 0 of 18 argvs differ\n")
    # the replay writes nothing, bytecode included, into the checkout it reads
    assert _files() == before
