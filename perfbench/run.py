"""Benchmark entry point: one named workload, one seed, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig5-serial --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit
codes: 0 ok, 1 a failed output check, 2 no ``src/repro`` beside the
benchmark, 3 a child process outlived the run, 130 interrupted.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fig5-serial", "pruned-2proc", "serve-mixed")
TMP_PARENT = ".perfbench-tmp"


class Context:
    """What a workload gets: its arguments, a scratch directory inside
    the checkout, and a register of the processes it starts."""

    def __init__(self, args: argparse.Namespace, tmp: Path) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.tmp = tmp
        self._children: list[subprocess.Popen] = []

    def spawn(self, argv: list[str], log: Path) -> subprocess.Popen:
        """Start ``argv`` in its own process group, output to ``log``."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        with open(log, "ab") as handle:
            child = subprocess.Popen(
                argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=handle, stderr=subprocess.STDOUT,
                start_new_session=True)
        self._children.append(child)
        return child

    def reap(self, child: subprocess.Popen, timeout: float = 10.0) -> None:
        """Wait for ``child`` to exit; SIGTERM then SIGKILL its group."""
        for sig in (None, signal.SIGTERM, signal.SIGKILL):
            if sig is not None:
                try:
                    os.killpg(child.pid, sig)
                except ProcessLookupError:
                    pass
            try:
                child.wait(timeout=timeout)
                break
            except subprocess.TimeoutExpired:
                continue
        _kill_group(child.pid)
        if child in self._children:
            self._children.remove(child)

    def reap_all(self) -> None:
        for child in list(self._children):
            self.reap(child, timeout=2.0)


def _kill_group(pgid: int) -> None:
    """SIGKILL whatever is left in a process group we created."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def surviving_children() -> list[int]:
    """Pids whose parent is this process (read from /proc)."""
    me = str(os.getpid())
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ')'.
        fields = stat.rsplit(")", 1)[1].split()
        if fields[1] == me and fields[0] != "Z":
            found.append(int(entry.name))
    return found


def peak_rss_mb() -> float:
    """Max RSS of this process and of every child it reaped, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(f"peak rss: own {own / 1024.0:.1f} MB, children "
          f"{children / 1024.0:.1f} MB", file=sys.stderr)
    return max(own, children) / 1024.0


def _interrupt(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    os.chdir(ROOT)
    # Measure the program's default engine, here and in every child.
    os.environ.pop("REPRO_SIM_ENGINE", None)
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, _interrupt)

    tmp = Path(TMP_PARENT) / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    ctx = Context(args, tmp)
    outcome = None
    error = None
    status = 0
    try:
        from checks import CheckFailed

        if args.workload == "serve-mixed":
            import serve_mixed as workload
        else:
            import sweeps as workload
        try:
            outcome = workload.run(ctx, args.workload)
        except CheckFailed as exc:
            error, status = f"check failed: {exc}", 1
    except KeyboardInterrupt as exc:
        error, status = f"interrupted ({exc or 'SIGINT'})", 130
    except Exception:
        traceback.print_exc()
        error, status = "unexpected error (traceback above)", 1
    finally:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        ctx.reap_all()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
    deadline = time.monotonic() + 5.0
    survivors = surviving_children()
    while survivors and time.monotonic() < deadline:
        time.sleep(0.1)
        survivors = surviving_children()
    if survivors:
        for pid in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        print(f"perfbench: child processes outlived the run: {survivors}",
              file=sys.stderr)
        return 3
    if error is not None:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
        return status
    from common import END_TO_END_UNITS, PER_LAYER_UNITS

    metrics = outcome["metrics"]
    units = PER_LAYER_UNITS if ctx.trace else END_TO_END_UNITS
    if not ctx.trace:
        metrics["peak_rss_mb"] = peak_rss_mb()
    missing = set(units) ^ set(metrics)
    if missing:
        print(f"perfbench: metric set mismatch: {sorted(missing)}",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
