"""Print how far the numbers two trees' CLIs write lie apart, case by case.

    python tools/cli_numdiff.py OLD_TREE NEW_TREE

Each of the 54 cases of ``cli_digests.py`` runs once per tree through its
``run``, a fresh ``python -m susypep.cli`` on that tree's ``src`` and
built backend. The runs go side by side in a thread pool of the default
size, and the lines are printed in case order. For stdout, stderr and each
written file but the checksum manifest, one line gives the count of
numbers, the largest relative deviation over the pairs with |x| > 1e-3 and
the largest absolute one over the rest; a summary per file name follows.
The exit status is 1 when a tree has no ``src/susypep/cli.py`` (nothing
runs), when a case's exit code or file list differs between the trees, or
a file's count of numbers or its text between them, else 0. A case that
exits with a code the CLI never returns stops ``run`` with its stderr.
"""
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from cli_digests import CASES, run

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:NaN|nan|Infinity|inf)")
SMALL = 1e-3


def deviation(old: str, new: str) -> tuple[int, float, float] | None:
    """(count, largest relative, largest absolute deviation), or None if the files differ in shape."""
    a, b = NUMBER.findall(old), NUMBER.findall(new)
    if len(a) != len(b) or NUMBER.split(old) != NUMBER.split(new):
        return None
    rel = absolute = 0.0
    for x, y in zip(map(float, a), map(float, b)):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        if max(abs(x), abs(y)) > SMALL:
            rel = max(rel, abs(y - x) / abs(x) if x else math.inf)
        else:
            absolute = max(absolute, abs(y - x))
    return len(a), rel, absolute


def main(old_tree: str, new_tree: str) -> int:
    trees = [Path(old_tree), Path(new_tree)]
    missing = [str(tree) for tree in trees if not (tree / "src" / "susypep" / "cli.py").is_file()]
    if missing:
        print(f"no src/susypep/cli.py in {' or '.join(missing)}: nothing to compare")
        return 1
    failed = False
    worst: dict[str, tuple[float, float]] = {}
    with ThreadPoolExecutor() as pool:
        runs = pool.map(lambda job: run(*job), [(tree, argv) for argv in CASES for tree in trees])
        for argv in CASES:
            (code_old, old), (code_new, new) = next(runs), next(runs)
            label = " ".join(argv)
            if code_old != code_new or old.keys() != new.keys():
                print(f"{label}: exit {code_old} -> {code_new}, "
                      f"files {sorted(old)} -> {sorted(new)}")
                failed = True
                continue
            for name in (name for name in old if name != "manifest.json"):
                dev = deviation(old[name].decode(), new[name].decode())
                if dev is None:
                    print(f"{label}: {name} differs in its count of numbers or its text")
                    failed = True
                    continue
                count, rel, absolute = dev
                print(f"{label}: {name} n={count} rel={rel:.2g} abs={absolute:.2g}", flush=True)
                key = re.sub(r"_(deuteron|be11|alpha)\.", ".", name)
                w_rel, w_abs = worst.get(key, (0.0, 0.0))
                worst[key] = (max(w_rel, rel), max(w_abs, absolute))
    print("largest deviation per file:")
    for key, (rel, absolute) in sorted(worst.items()):
        print(f"  {key}: rel={rel:.2g} (|x| > {SMALL:g}) abs={absolute:.2g} (|x| <= {SMALL:g})")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
