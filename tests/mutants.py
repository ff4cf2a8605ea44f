"""Run one-line mutants of the source against the tier-1 suite, to show that
its tests can fail where the code is wrong.

Run from the repository root:

    python tests/mutants.py

Each mutant below is a named edit of one line of one file: the text it
replaces must occur exactly once in that file, which is checked for every
mutant before any runs.  For each, the repository is copied into a temporary
directory (under ``TMPDIR``, if set), the edit applied there, and the tier-1
suite run with ``-x``.  One line per mutant gives ``killed by <test>``,
naming the first failing test, or ``survived``.  An equivalent mutant carries
the reason that no test should kill it, printed after its result.  Each run
takes up to one suite's time.
"""
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNELS = "src/relaymdp/_kernels.py"
COMPLETE = "src/relaymdp/dp_complete.py"
RESTRICTED = "src/relaymdp/dp_restricted.py"
EXPERIMENTS = "src/relaymdp/experiments.py"
SIMULATE = "src/relaymdp/simulate.py"

# (name, file, text, replacement, reason if equivalent)
MUTANTS = [
    ("probe tie strict", KERNELS,
     "where=probe <= cont + TIE_TOL)", "where=probe < cont)", None),
    ("wake-up gaps tau sqrt(E) / Gamma(3/2)", SIMULATE,
     "inter = rng.exponential(config.tau, size=shape)",
     "inter = config.tau * np.sqrt(rng.exponential(1.0, size=shape)) / 0.886226925452758",
     None),
    ("check (a) always passes", RESTRICTED,
     "CheckResult(worst_a <= STRUCTURE_TOL, worst_a)", "CheckResult(True, worst_a)", None),
    ("check (b) always passes", RESTRICTED,
     "CheckResult(worst_b <= STRUCTURE_TOL, worst_b)", "CheckResult(True, worst_b)", None),
    ("check (c) always passes", RESTRICTED,
     "CheckResult(worst_c <= STRUCTURE_TOL, worst_c)", "CheckResult(True, worst_c)", None),
    ("check (g) always passes", RESTRICTED,
     "CheckResult(worst_g <= STRUCTURE_TOL, worst_g)", "CheckResult(True, worst_g)", None),
    ("check (g) one-sided", RESTRICTED,
     "_worst(np.abs(gap[thresholds.s_flags]))", "_worst(gap[thresholds.s_flags])", None),
    ("level pass: first illegal row not offset", EXPERIMENTS,
     "row += rows.start", "row += 0", None),
    ("level pass: hits read from slot 0 alone", EXPERIMENTS,
     "reached[types[hits], rests[hits]] = True",
     "reached[types[:, 0][hits[:, 0]], rests[:, 0][hits[:, 0]]] = True", None),
    ("level pass: reached from the first row batch alone", EXPERIMENTS,
     "out=hits[rows, p])", "out=hits[rows, p] if not rows.start else None)", None),
    ("level pass: hits ignore the mass", EXPERIMENTS,
     "np.logical_and(eq, moving, out=eq).any(axis=1, out=hits[rows, p])",
     "eq.any(axis=1, out=hits[rows, p])",
     "it reaches rows that probe only at entries of zero mass, whose gathered mass is "
     "+0.0, so every moved entry keeps its value; the probe count's sum then holds more "
     "zeros, which moves it by round-off alone"),
    ("dead bins: the margin dropped", KERNELS,
     " - STRUCTURE_TOL * scale / eta * (1 + slack)", "", None),
    ("dead bins: a set dead once its first member is", COMPLETE,
     "dead = np.maximum(dead_from[types[:, 0]], dead[rests[:, 0]])",
     "dead = np.minimum(dead_from[types[:, 0]], dead[rests[:, 0]])", None),
    ("probe kernel: a newly live row's carry seeded with zeros", COMPLETE,
     "carry[:, carried + 1:live + 1] = carry[:, :1]", "carry[:, carried + 1:live + 1] = 0.0",
     None),
    ("probe kernel: the none row pruned", COMPLETE,
     "probe[rows, -1], code[rows, -1] = best[0], pick[0]",
     "best[:, plan.dead == 0], pick[:, plan.dead == 0] = np.inf, NO_ACTION; "
     "probe[rows, -1], code[rows, -1] = best[0], pick[0]", None),
    ("standard error with ddof=0", SIMULATE,
     "c.std(ddof=1)", "c.std(ddof=0)",
     "at the suite's 10,000 episodes and more the two differ by a factor below 1 + 5e-5, "
     "far inside every z-score bound"),
]

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def check_edits() -> None:
    """Every mutant's text occurs exactly once in its file."""
    for name, path, text, _, _ in MUTANTS:
        count = (ROOT / path).read_text().count(text)
        if count != 1:
            raise SystemExit(f"mutant {name!r}: {text!r} occurs {count} times in {path}")


def run(path: str, text: str, replacement: str) -> str:
    """``killed by <test>`` or ``survived``, for tier-1 on the edited copy."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "*.egg-info"))
        source = copy / path
        source.write_text(source.read_text().replace(text, replacement))
        done = subprocess.run(TIER1, cwd=copy, env={**os.environ, "PYTHONPATH": "src"},
                              capture_output=True, text=True)
    if done.returncode == 0:
        return "survived"
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return f"killed by {failed.group(1) if failed else f'exit code {done.returncode}'}"


def main() -> None:
    check_edits()
    for name, path, text, replacement, reason in MUTANTS:
        result = run(path, text, replacement)
        print(f"{name}: {result}" + (f" (equivalent: {reason})" if reason else ""), flush=True)


if __name__ == "__main__":
    main()
