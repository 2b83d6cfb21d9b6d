"""Print a sha256 digest line for each of the 54 standard CLI runs.

Every preset runs every command on the default grid and on a 0.005 fm x
100 fm grid, in this process. Each output line holds the argv, the exit
code and the sha256 of stdout, stderr and every written file. Two trees
wrote byte-identical outputs when their printouts do not differ:

    python tools/cli_digests.py > digests.txt

The backend in use is printed first: the compiled kernel when it is built
in ``src``, else the pure-Python fallback.
"""
import contextlib
import hashlib
import io
import logging
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from susypep import BACKEND  # noqa: E402
from susypep.cli import main  # noqa: E402

SWEEP = ["--emin", "0.1", "--emax", "20", "--estep", "0.1"]
COMMANDS = [["fit"], ["spectrum"], ["partner"], ["partner", "--removals", "2"],
            ["report", "--format", "both"], ["report", "--format", "both"] + SWEEP,
            ["phase"], ["phase", "--emin", "1", "--emax", "4", "--estep", "1"],
            ["transfer-ratio"]]
GRIDS = [[], ["--step", "0.005", "--rmax", "100"]]
CASES = [command + ["--preset", preset] + grid
         for preset in ("deuteron", "be11", "alpha") for grid in GRIDS for command in COMMANDS]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        logging.root.handlers.clear()   # main's basicConfig then logs to this run's stderr
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--out", tmp])
        files = sorted(p for p in Path(tmp).rglob("*") if p.is_file())
        parts = [f"{p.relative_to(tmp)}={sha(p.read_bytes())}" for p in files]
    return " ".join([" ".join(argv), f"exit={code}", f"stdout={sha(out.getvalue().encode())}",
                     f"stderr={sha(err.getvalue().encode())}"] + parts)


if __name__ == "__main__":
    print(f"backend {BACKEND}")
    for argv in CASES:
        print(digest(argv), flush=True)
