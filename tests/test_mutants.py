"""The mutant list of ``tests/mutants.py`` stays applicable: each mutant's
text occurs exactly once in the file it edits. A rewrite of the code a mutant
targets fails here rather than only when someone runs the script, and so does
a formula written twice, whose second copy the edit would leave intact. A
script stopped by SIGTERM leaves neither its copy nor its pytest run behind."""

import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mutants import MUTANTS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "moits"
SCRIPT = Path(__file__).resolve().parent / "mutants.py"


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_text_occurs_in_its_file(name):
    file, text, replacement, _ = MUTANTS[name]
    assert (PACKAGE / file).read_text(encoding="utf-8").count(text) == 1
    assert replacement != text


def processes():
    """(pid, parent pid, process group, state) of every process, from /proc."""
    out = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:  # it exited meanwhile
                continue
            state, ppid, pgid = stat[stat.rindex(")") + 2:].split()[:3]
            out.append((int(entry.name), int(ppid), int(pgid), state))
    return out


def wait_for(condition, seconds) -> bool:
    """Poll ``condition`` until it holds or ``seconds`` pass; whether it held."""
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads processes from /proc")
def test_sigterm_removes_the_copy_and_stops_its_pytest_run(tmp_path):
    script = subprocess.Popen(
        [sys.executable, str(SCRIPT), "no_kick"], env=dict(os.environ, TMPDIR=str(tmp_path)),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    children = []

    def started():
        children[:] = [pid for pid, ppid, _, _ in processes() if ppid == script.pid]
        return children or script.poll() is not None

    def left():  # the pytest run and every process of its group, zombies aside
        return [pid for pid, _, pgid, state in processes()
                if (pid in children or pgid in children) and state != "Z"]

    try:
        assert wait_for(started, 60) and children, "the script started no pytest run"
        assert list(tmp_path.glob("*/checkout"))
        script.send_signal(signal.SIGTERM)
        code = script.wait(timeout=30)
        stopped = wait_for(lambda: not left(), 5)
        leftovers = list(tmp_path.iterdir())
    finally:
        if script.poll() is None:
            script.kill()
            script.wait()
        for pid in left():
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
    assert code == 128 + signal.SIGTERM
    assert leftovers == []
    assert stopped, "processes of the pytest run outlived the script"
