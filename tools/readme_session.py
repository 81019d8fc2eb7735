"""Digests of the README's command-line session, run against one checkout.

    python3 tools/readme_session.py CHECKOUT > session.txt

Runs every ``romstab`` command of the README's ``sh`` session block, in
order, in a fresh temporary directory, as ``python -m romstab.cli`` with
``CHECKOUT/src`` first on the import path and one BLAS thread.  The
commands are parsed from the README of this tool's own checkout (comments
dropped, backslash continuations joined), so the list cannot drift from the
documentation.  For each command it prints the command, its exit code, the
SHA-256 of its stdout, and the SHA-256 of every file the command wrote or
changed, in name order.  Two checkouts produce byte-identical sessions when
their outputs diff clean.
"""

import hashlib
import os
import re
import shlex
import subprocess
import sys
import tempfile

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def session_commands(readme=README):
    """The argument lists of the ``romstab`` commands in the README's session block."""
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"^```sh\n(.*?)^```", fh.read(), flags=re.M | re.S)
    for block in blocks:
        lines = [line.split("#", 1)[0].rstrip() for line in block.splitlines()]
        joined = re.sub(r"\\\n\s*", " ", "\n".join(lines))
        commands = [shlex.split(line) for line in joined.splitlines() if line.strip()]
        if commands and all(cmd[0] == "romstab" for cmd in commands):
            return [cmd[1:] for cmd in commands]
    raise ValueError(f"{readme} has no sh block of romstab commands")


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def _snapshot(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = _digest(fh.read())
    return out


def run_session(checkout, out=sys.stdout):
    """Run the session against ``checkout``; return the list of exit codes."""
    src = os.path.join(os.path.abspath(checkout), "src")
    env = dict(os.environ, PYTHONPATH=src, **{name: "1" for name in THREADS})
    codes = []
    with tempfile.TemporaryDirectory() as work:
        for args in session_commands():
            before = _snapshot(work)
            result = subprocess.run([sys.executable, "-m", "romstab.cli", *args], cwd=work,
                                    env=env, capture_output=True, check=False)
            codes.append(result.returncode)
            print("$ romstab " + shlex.join(args), file=out)
            print(f"exit {result.returncode}", file=out)
            print(f"stdout {_digest(result.stdout)}", file=out)
            for name, digest in _snapshot(work).items():
                if before.get(name) != digest:
                    print(f"file {name} {digest}", file=out)
    return codes


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    return 0 if all(code == 0 for code in run_session(argv[0])) else 1


if __name__ == "__main__":
    sys.exit(main())
