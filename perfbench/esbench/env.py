"""Where the checkout is, how to import its library, and run provenance."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

# perfbench/esbench/env.py -> checkout root
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
# Scratch space for outputs and trace files; listed in .gitignore.
WORK = ROOT / ".perfbench_work"


class CheckoutError(RuntimeError):
    """The checkout does not hold the library sources."""


def import_library():
    """Import ``esphere`` from the checkout's ``src``, never from elsewhere."""
    if not (SRC / "esphere" / "__init__.py").is_file():
        raise CheckoutError(f"no esphere sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import esphere

    origin = Path(esphere.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise CheckoutError(f"esphere was imported from {origin}, not from {SRC}")
    return esphere


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that imports the checkout's library."""
    paths = [str(SRC)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def work_dir() -> Path:
    WORK.mkdir(exist_ok=True)
    return WORK


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def provenance(esphere, seed: int) -> dict[str, object]:
    """Everything a reader needs to know which code and stream made a result."""
    import numpy as np

    from esphere import singlet

    rev = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_rev": rev,
        "git_dirty": None if status is None else bool(status),
        "esphere": esphere.__version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "bit_generator": type(np.random.default_rng(0).bit_generator).__name__,
        "block_trials": singlet.BLOCK_TRIALS,
        "seed_scheme": "SeedSequence(entropy=seed, spawn_key=(block,))",
        "workload_seed": seed,
    }
