"""Mutation score of the test suite: does tier-1 see a law, a trigger or a
target read in the wrong place?

Each mutant is a small textual edit of ``src/rejuvkit``.  For each one the
script copies the tree to a temporary directory, applies the edit there,
runs the suite (stopping at its first failure) and prints ``killed`` or
``survived``; the repository itself is never edited.  Run from anywhere::

    python tests/mutants.py            # every mutant, about 6 minutes
    python tests/mutants.py tie-rule   # only the named ones
    python tests/mutants.py --list

Set ``TMPDIR`` to choose where the copies go.  pytest does not collect
this file (its name does not start with ``test_``).
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODEL, ANALYSIS, SIMULATOR = (f"src/rejuvkit/{m}.py" for m in ("model", "analysis", "simulator"))

# name -> (file, [(old, new), ...]); the edits apply in order, each to exactly
# one occurrence of its old text
MUTANTS = {
    # the event table of model.state_events
    "states-4/5-triggers-a5-a6": (MODEL, [
        ("(p.a5), 1.0, 9), _Event(p.fail_fixing_backup", "(p.a6), 1.0, 9), _Event(p.fail_fixing_backup"),
        ("(p.a6), 1.0, 9), _Event(p.fail_reboot_backup", "(p.a5), 1.0, 9), _Event(p.fail_reboot_backup"),
    ]),
    "state-1-trigger-a4-to-a1": (MODEL, [
        ("_Event(_trigger(p.a4), p.c1, 9)", "_Event(_trigger(p.a1), p.c1, 9)"),
    ]),
    "states-4/5-fail-fixing-reboot-backup": (MODEL, [
        ("(p.a5), 1.0, 9), _Event(p.fail_fixing_backup", "(p.a5), 1.0, 9), _Event(p.fail_reboot_backup"),
        ("(p.a6), 1.0, 9), _Event(p.fail_reboot_backup", "(p.a6), 1.0, 9), _Event(p.fail_fixing_backup"),
    ]),
    "state-1-targets-5-4": (MODEL, [
        ("_Event(p.reboot_primary, p.c2, 5)", "_Event(p.reboot_primary, p.c2, 4)"),
        ("_Event(p.fixing_primary, p.c3, 4)", "_Event(p.fixing_primary, p.c3, 5)"),
    ]),
    "state-9-fail-migrating-backup-to-primary": (MODEL, [
        ("_Event(p.fail_migrating_backup, 1.0, 11)", "_Event(p.fail_migrating_primary, 1.0, 11)"),
    ]),
    "state-1-c2-c3": (MODEL, [
        ("_Event(p.reboot_primary, p.c2, 5)", "_Event(p.reboot_primary, p.c3, 5)"),
        ("_Event(p.fixing_primary, p.c3, 4)", "_Event(p.fixing_primary, p.c2, 4)"),
    ]),
    "state-8-c2-c3": (MODEL, [
        ("_Event(p.reboot_backup, p.c2, 3)", "_Event(p.reboot_backup, p.c3, 3)"),
        ("_Event(p.fixing_backup, p.c3, 6)", "_Event(p.fixing_backup, p.c2, 6)"),
    ]),
    "states-3/6-triggers-a2-a3": (MODEL, [
        ("(p.a3), 1.0, 2), _Event(p.fail_reboot_primary", "(p.a2), 1.0, 2), _Event(p.fail_reboot_primary"),
        ("(p.a2), 1.0, 2), _Event(p.fail_fixing_primary", "(p.a3), 1.0, 2), _Event(p.fail_fixing_primary"),
    ]),
    "tie-rule": (MODEL, [("if not (tied and k >= j):", "if not (tied and k > j):")]),
    "states-3/6-fail-reboot-fixing-primary": (MODEL, [
        ("(p.a3), 1.0, 2), _Event(p.fail_reboot_primary", "(p.a3), 1.0, 2), _Event(p.fail_fixing_primary"),
        ("(p.a2), 1.0, 2), _Event(p.fail_fixing_primary", "(p.a2), 1.0, 2), _Event(p.fail_reboot_primary"),
    ]),
    "state-1-fail-idle-backup-to-primary": (MODEL, [
        ("_Event(p.fail_idle_backup, 1.0, 11)", "_Event(p.fail_idle_primary, 1.0, 11)"),
    ]),
    "state-11-fixing-backup-to-primary": (MODEL, [
        ("[_Event(p.fixing_backup, 1.0, 7)]", "[_Event(p.fixing_primary, 1.0, 7)]"),
    ]),
    # the primary case of analysis._cases
    "completion-primary-post-laws": (ANALYSIS, [
        ("(p.fail_fixing_primary, p.fail_reboot_primary, p.fail_migrating_primary)",
         "(p.fail_reboot_primary, p.fail_fixing_primary, p.fail_migrating_primary)"),
    ]),
    "completion-primary-gates": (ANALYSIS, [
        ("p.reboot_backup,\n        p.fixing_backup,\n", "p.fixing_backup,\n        p.reboot_backup,\n"),
    ]),
    # the simulator's conditional Monte Carlo credits
    "sim-cut-check": (SIMULATOR, [("np.where(due < limit, step[2], 0.0)", "step[2]")]),
    "sim-thinned-credits": (SIMULATOR, [("down * (credit - (nxt >= _FAILED))", "np.zeros(n)")]),
    "sim-tie-strict": (SIMULATOR, [
        ("drawn[k] <= drawn[f] if k < f", "drawn[k] < drawn[f] if k < f"),
    ]),
}

IGNORE = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", ".benchmarks", "__pycache__", "out")


def mutate(tree, path, edits):
    """Apply ``edits`` to ``tree/path``; each old text must occur exactly once."""
    file = tree / path
    text = file.read_text()
    for old, new in edits:
        if text.count(old) != 1:
            raise ValueError(f"{path}: {old!r} occurs {text.count(old)} times, not once")
        text = text.replace(old, new)
    file.write_text(text)


def run(name):
    """``killed`` or ``survived``: the suite on a copy of the tree with mutant ``name``."""
    path, edits = MUTANTS[name]
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        mutate(tree, path, edits)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
        done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return "survived", ""
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return "killed", failed[0] if failed else done.stdout.strip().splitlines()[-1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    if args.list:
        print("\n".join(MUTANTS))
        return 0
    unknown = sorted(set(args.names) - set(MUTANTS))
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    killed = 0
    names = args.names or list(MUTANTS)
    for name in names:
        started = time.perf_counter()
        verdict, by = run(name)
        killed += verdict == "killed"
        print(f"{verdict:8} {name:42} {time.perf_counter() - started:5.1f} s  {by}", flush=True)
    print(f"mutation score: {killed}/{len(names)} killed")
    return 0 if killed == len(names) else 1


if __name__ == "__main__":
    sys.exit(main())
