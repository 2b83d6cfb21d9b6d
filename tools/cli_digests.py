"""Print a sha256 digest line for each of the 54 standard CLI runs.

Every preset runs every command on the default grid and on a 0.005 fm x
100 fm grid. Each case runs as a fresh ``python -m susypep.cli`` on this
checkout's ``src``, as a user runs it; its line holds the argv, the exit
code and the sha256 of stdout, stderr and every written file. The cases
run side by side in a thread pool of the default size, and their lines
are printed in case order. A case that exits with a code the CLI never
returns (Python could not run it) stops the tool with status 1 and its
stderr. Equal printouts mean equal bytes:

    python tools/cli_digests.py > digests.txt

The backend in use is printed first: the compiled kernel when it is built
in ``src``, else the pure-Python fallback.
"""
import hashlib
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWEEP = ["--emin", "0.1", "--emax", "20", "--estep", "0.1"]
COMMANDS = [["fit"], ["spectrum"], ["partner"], ["partner", "--removals", "2"],
            ["report", "--format", "both"], ["report", "--format", "both"] + SWEEP,
            ["phase"], ["phase", "--emin", "1", "--emax", "4", "--estep", "1"],
            ["transfer-ratio"]]
GRIDS = [[], ["--step", "0.005", "--rmax", "100"]]
CASES = [command + ["--preset", preset] + grid
         for preset in ("deuteron", "be11", "alpha") for grid in GRIDS for command in COMMANDS]
CLI_EXITS = {0, 2, 3}


def python(tree: Path, args: list[str], cwd: str) -> subprocess.CompletedProcess:
    """A fresh ``python ARGS`` in ``cwd`` that imports susypep from ``tree/src`` only."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, cwd=cwd)


def run(tree: Path, argv: list[str]) -> tuple[int, dict[str, bytes]]:
    """Exit code and {name: bytes} of stdout, stderr and the written files of one case."""
    with tempfile.TemporaryDirectory() as tmp:
        proc = python(tree, ["-m", "susypep.cli", *argv, "--out", tmp], cwd=tmp)
        outputs = {"stdout": proc.stdout, "stderr": proc.stderr}
        for path in sorted(p for p in Path(tmp).rglob("*") if p.is_file()):
            outputs[str(path.relative_to(tmp))] = path.read_bytes()
    if proc.returncode not in CLI_EXITS:
        sys.exit(f"{' '.join(argv)}: exit {proc.returncode}\n{proc.stderr.decode()}")
    return proc.returncode, outputs


def digest(argv: list[str]) -> str:
    code, outputs = run(ROOT, argv)
    parts = [f"{name}={hashlib.sha256(data).hexdigest()}" for name, data in outputs.items()]
    return " ".join([" ".join(argv), f"exit={code}"] + parts)


if __name__ == "__main__":
    backend = python(ROOT, ["-c", "import susypep; print(susypep.BACKEND)"], cwd=str(ROOT))
    if backend.returncode:
        sys.exit(backend.stderr.decode())
    print(f"backend {backend.stdout.decode().strip()}", flush=True)
    with ThreadPoolExecutor() as pool:
        for line in pool.map(digest, CASES):
            print(line, flush=True)
