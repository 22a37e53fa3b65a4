"""Print an md5 digest of every CLI output on the built-in fixtures.

Each line is ``md5  argv`` for one in-process run of ``boltzq.cli.main``;
the digest covers the exit code, the captured stdout and stderr, and the
file written by ``--csv``.  Two checkouts whose outputs are byte-identical
print identical lines, so a refactor that must not change any output is
checked by diffing this script's output on both::

    PYTHONPATH=<checkout>/src python tools/output_digests.py > digests.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

from boltzq.cli import main
from boltzq.fixtures import FIXTURES

#: stands for the temporary directory in printed argv, so lines do not
#: depend on where the files were written
_TMP = "<tmp>"


def runs(fixture: str) -> list[list[str]]:
    """The argv of every run on one fixture."""
    game = ["--fixture", fixture]
    return [
        *(["restpoints", *game, "--tx", t, "--ty", t]
          for t in ("0.05", "0.5", "1")),
        ["classify", *game],
        ["sweep", *game],
        ["sweep", *game, "--steps", "40", "--t-min", "0.01", "--t-max", "3"],
        ["critical", *game, "--orientation", "tx"],
        ["critical", *game, "--orientation", "ty"],
        ["portrait", *game, "--grid", "3", "--csv", f"{_TMP}/portrait.csv"],
        ["simulate", *game],
        ["simulate", *game, "--starts", "50"],
        ["agents", *game, "--rounds", "2000"],
    ]


def digest(argv: list[str], tmp: str) -> str:
    """md5 of one run's exit code, stdout, stderr and written files."""
    argv = [arg.replace(_TMP, tmp) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    md5 = hashlib.md5(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode())
    for name in sorted(os.listdir(tmp)):
        path = os.path.join(tmp, name)
        with open(path, "rb") as fh:
            md5.update(b"\0" + name.encode() + b"\0" + fh.read())
        os.remove(path)
    return md5.hexdigest()


def main_digests() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for fixture in sorted(FIXTURES):
            for argv in runs(fixture):
                print(f"{digest(argv, tmp)}  {' '.join(argv)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main_digests())
