#!/usr/bin/env python3
"""Run the acceptance suite and the golden check on every CPython >= 3.10.

    python scripts/cross_python.py                   # every interpreter found
    python scripts/cross_python.py /usr/bin/python3  # only the ones named

Without arguments the interpreters are ~/.pyenv/versions/*/bin/python3 and
python3.10 ... python3.13 on the PATH, each taken once (by the real path of
its sys.executable); those below 3.10 or that do not start (a pyenv shim
of a version not selected) are skipped.  Under each one it runs
`monorm selftest` and `scripts/regen_golden.py --check` from this checkout
(PYTHONPATH=src, no bytecode written), the two side by side, and prints one
line: the version, both outcomes and the interpreter.  A failing selftest
names its failing criteria, a failing check its report count.  Needs no
pytest.  Exits 1 when any interpreter fails either, 2 when none is found.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: the oldest CPython the package supports (pyproject.toml, requires-python)
OLDEST = (3, 10)
#: per run; selftest and the golden check each take a few seconds
TIMEOUT_S = 600

_PROBE = "import os, sys; print('%d.%d.%d' % sys.version_info[:3]); print(os.path.realpath(sys.executable))"


def candidates() -> list[str]:
    found = sorted(str(p) for p in Path.home().glob(".pyenv/versions/*/bin/python3"))
    for minor in range(OLDEST[1], 14):
        path = shutil.which(f"python3.{minor}")
        if path:
            found.append(path)
    return found


def probe(python: str) -> tuple[tuple[int, ...], str] | None:
    """(version, real path) of the interpreter, None if it does not run."""
    try:
        out = subprocess.run(
            [python, "-c", _PROBE], capture_output=True, text=True, timeout=60
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(out) != 2:
        return None
    return tuple(int(x) for x in out[0].split(".")), out[1]


def check(python: str) -> tuple[bool, str]:
    """(passed, one line) for selftest and the golden check under python."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    runs = [
        subprocess.Popen(
            [python, *argv], cwd=ROOT, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        for argv in (["-m", "monorm", "selftest"], ["scripts/regen_golden.py", "--check"])
    ]
    (self_out, self_code), (gold_out, gold_code) = [
        (run.communicate(timeout=TIMEOUT_S)[0], run.returncode) for run in runs
    ]
    failed = [line.split("  ", 1)[1].split(":")[0] for line in self_out.splitlines()
              if line.startswith("FAIL  ")]
    selftest = "selftest passed" if self_code == 0 else (
        f"selftest FAILED ({'; '.join(failed) or f'exit {self_code}'})"
    )
    lines = gold_out.strip().splitlines()
    golden = f"golden {lines[-1] if lines else f'exit {gold_code}'}"
    return self_code == 0 and gold_code == 0, f"{selftest}, {golden}"


def main(argv: list[str]) -> int:
    seen: set[str] = set()
    failures = ran = 0
    for python in argv or candidates():
        found = probe(python)
        if found is None:
            if argv:
                print(f"{python}: does not run")
                failures += 1
            continue
        version, real = found
        if real in seen or version < OLDEST:
            continue
        seen.add(real)
        ok, summary = check(python)
        ran += 1
        failures += not ok
        print(f"{'.'.join(map(str, version)):<8} {'ok  ' if ok else 'FAIL'} {summary}  [{python}]")
    if not ran and not failures:
        print("no CPython >= %d.%d found" % OLDEST)
        return 2
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
