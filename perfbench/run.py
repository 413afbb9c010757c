"""Benchmark of the ``hilbhodge`` command line.  Run from the repository root::

    python3 perfbench/run.py --workload series --seed 1 --seconds 30 --trace 0

A run sets up the workload three times -- datasets from the seed, a
warm-up launch that compiles the bytecode, every reference the output
checks need -- and reports the median set-up time.  It then runs the
workload's command sequence as a closed loop, one
``python -m hilbhodge.cli`` subprocess at a time, until ``--seconds``
have passed (always at least one whole sequence), and checks every
output after each sequence, outside the timed region.

Every time reported is divided by the host-speed factor of the run
(:class:`HostSpeed`); the line ``unscaled:`` gives the raw figures.
``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced sequences with sequences in which every command runs under
``tracer.py``, and reports the per-layer metrics of the traced ones.

Human-readable lines come first; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Exit code 2
means the run could not be made, for example outside a checkout.
"""

from __future__ import annotations

import argparse
import json
import marshal
import os
import platform
import selectors
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

import layers

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = Path("perfbench") / "work"  # under the checkout root, gitignored
TRACER = os.path.relpath(Path(__file__).resolve().parent / "tracer.py", ROOT)
SETUPS = 3
COMMAND_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170  # a run ends within the 180 s it is allowed, even if commands hang
MAX_REPORTED_FAILURES = 10
# The host-speed probe: an interpreter start and the stdlib imports a
# hilbhodge command makes, but no hilbhodge code.
PROBE = ["-c", "import argparse, dataclasses, fractions, json"]
PROBE_EVERY_S = 1.0
REFERENCE_PROBE_S = 0.1  # typical probe time on the host the benchmark was defined on


class Outcome:
    """One finished command: exit code, output, spawn-to-exit seconds, peak RSS."""

    def __init__(self, rc: int, out: bytes, err: bytes, seconds: float, maxrss_kb: int):
        self.rc, self.out, self.err = rc, out, err
        self.seconds, self.maxrss_kb = seconds, maxrss_kb


class HostSpeed:
    """How fast the host runs now, from a probe subprocess taken about once a second.

    The probe imports no ``hilbhodge`` code, so no change to the program
    can move it.  Dividing a run's times by :meth:`factor` cancels the
    drift of the host's speed between runs (see README.md).
    """

    def __init__(self, env: dict[str, str], deadline: float):
        self.env = env
        self.deadline = deadline
        self.times: list[float] = []
        self.last = float("-inf")

    def maybe_probe(self) -> None:
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.times.append(spawn([sys.executable, *PROBE], self.env, self.deadline).seconds)
            self.last = time.perf_counter()

    def factor(self) -> float:
        return median(self.times) / REFERENCE_PROBE_S


def spawn(argv: list[str], env: dict[str, str], deadline: float) -> Outcome:
    """Run one subprocess to its end or the deadline, draining both pipes; reap it with wait4."""
    start = time.perf_counter()
    deadline = min(deadline, start + COMMAND_TIMEOUT_S)
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks: dict[int, list[bytes]] = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    out_fd, err_fd = chunks
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            sel.register(proc.stderr, selectors.EVENT_READ)
            while sel.get_map():
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    proc.kill()
                    break
                for key, _ in sel.select(timeout=remaining):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return Outcome(proc.returncode, b"".join(chunks[out_fd]), b"".join(chunks[err_fd]),
                   time.perf_counter() - start, usage.ru_maxrss)


class Checker:
    """Counts commands with an unexpected exit code or a failed output check."""

    def __init__(self, commands):
        self.commands = commands
        self.passed: dict[int, bytes] = {}  # outputs already checked, by command index
        self.reported = 0

    def failures(self, outcomes: list[Outcome]) -> int:
        failed = 0
        groups: dict[str, bytes] = {}
        for i, (command, outcome) in enumerate(zip(self.commands, outcomes)):
            error = self._error(i, command, outcome)
            if error is None and command.group is not None:
                if groups.setdefault(command.group, outcome.out) != outcome.out:
                    error = f"output differs from the rest of group {command.group}"
            if error is not None:
                failed += 1
                self._report(command, error)
        return failed

    def _error(self, i: int, command, outcome: Outcome) -> str | None:
        if outcome.rc != command.rc:
            tail = outcome.err.decode(errors="replace").strip()[-300:]
            return f"exit code {outcome.rc}, expected {command.rc}: {tail}"
        if self.passed.get(i) == outcome.out:
            return None
        try:
            error = command.check(outcome.out.decode())
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            error = f"unreadable output: {exc!r}"
        if error is None:
            self.passed[i] = outcome.out
        return error

    def _report(self, command, error: str) -> None:
        self.reported += 1
        if self.reported <= MAX_REPORTED_FAILURES:
            print(f"FAIL hilbhodge {' '.join(command.argv)}: {error}", file=sys.stderr)


def repeat_for(seconds: float):
    """Yield until ``seconds`` have passed, at least once; start no round that
    would end more than half a round past the limit."""
    start = last = time.perf_counter()
    while True:
        yield
        now = time.perf_counter()
        if now - start + (now - last) / 2 >= seconds:
            return
        last = now


class Runner:
    def __init__(self, commands, workdir: Path, env: dict[str, str], deadline: float,
                 host: HostSpeed):
        self.commands = commands
        self.workdir = workdir
        self.env = env
        self.deadline = deadline
        self.host = host
        self.checker = Checker(commands)
        self.attempted = 0
        self.failed = 0

    def sequence(self, traced: bool = False) -> tuple[list[Outcome], list[dict]]:
        """Run every command once, in order; returns the outcomes and, when traced, spans."""
        outcomes, records = [], []
        for i, command in enumerate(self.commands):
            self.host.maybe_probe()
            if traced:
                spans = self.workdir / f"spans-{i}.bin"
                argv = [sys.executable, TRACER, str(spans), repr(time.perf_counter()), "--"]
            else:
                argv = [sys.executable, "-m", "hilbhodge.cli"]
            outcomes.append(spawn(argv + list(command.argv), self.env, self.deadline))
        if traced:
            for i in range(len(self.commands)):
                spans = ROOT / self.workdir / f"spans-{i}.bin"
                if not spans.is_file():  # the command died before writing; it counts as failed
                    records.append(layers.EMPTY_RECORD)
                    continue
                records.append(marshal.loads(spans.read_bytes()))
                spans.unlink()
        self.attempted += len(outcomes)
        self.failed += self.checker.failures(outcomes)
        return outcomes, records

    def plain(self, seconds: float) -> dict[str, tuple[float, str]]:
        walls, outcomes = [], []
        for _ in repeat_for(seconds):
            done, _ = self.sequence()
            walls.append(sum(o.seconds for o in done))
            outcomes += done
        latencies_ms = [o.seconds * 1000 for o in outcomes]
        p90 = quantiles(latencies_ms, n=10, method="inclusive")[8]
        speed = self.host.factor()
        print(f"samples: {len(latencies_ms)} commands in {len(walls)} sequences; "
              f"{sum(v > p90 for v in latencies_ms)} beyond p90")
        print(f"unscaled: wall_s {median(walls):.6g} s, cmd_p50_ms {median(latencies_ms):.6g} ms, "
              f"cmd_p90_ms {p90:.6g} ms; host speed factor {speed:.4g} "
              f"from {len(self.host.times)} probes")
        return {
            "wall_s": (median(walls) / speed, "s"),
            "cmd_p50_ms": (median(latencies_ms) / speed, "ms"),
            "cmd_p90_ms": (p90 / speed, "ms"),
            "peak_rss_mb": (max(o.maxrss_kb for o in outcomes) / 1024, "MB"),
        }

    def traced(self, seconds: float) -> dict[str, tuple[float, str]]:
        plain_walls, traced_walls, per_sequence = [], [], []
        for _ in repeat_for(seconds):
            plain_walls.append(sum(o.seconds for o in self.sequence()[0]))
            outcomes, records = self.sequence(traced=True)
            traced_walls.append(sum(o.seconds for o in outcomes))
            metrics = layers.sequence_metrics([layers.command_metrics(r) for r in records])
            metrics["cli.stdout_bytes"] = sum(len(o.out) for o in outcomes)
            per_sequence.append(metrics)
            if len(per_sequence) == 1:
                self._write_trace(records)
        speed = self.host.factor()
        out = {}
        for name, first in per_sequence[0].items():
            unit = layers.unit(name)
            if unit in ("s", "ms"):
                out[name] = (median(m[name] for m in per_sequence) / speed, unit)
                continue
            if any(m[name] != first for m in per_sequence):
                print(f"warning: {name} differs between traced sequences", file=sys.stderr)
            out[name] = (first, unit)
        overhead = median(traced_walls) - median(plain_walls)
        out["trace.overhead_s"] = (overhead / speed, "s")
        return out

    def _write_trace(self, records: list[dict]) -> None:
        """Keep the spans of the first traced sequence, with command ids."""
        commands = [
            {"cmd": i, "argv": list(c.argv), "import_s": r["import_s"], "spans": r["spans"],
             "counters": r["counters"]}
            for i, (c, r) in enumerate(zip(self.commands, records))
        ]
        (ROOT / self.workdir / "trace.json").write_text(json.dumps({"commands": commands}))


# -- environment record ---------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; none outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def environment(env: dict[str, str], deadline: float) -> dict:
    def launch_ms(*flags: str) -> float:
        runs = [spawn([sys.executable, *flags, "-c", "pass"], env, deadline) for _ in range(5)]
        return median(run.seconds * 1000 for run in runs)

    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_sha": _git_sha(),
        "python_c_pass_ms": launch_ms(),
        "python_S_c_pass_ms": launch_ms("-S"),
    }


# -- entry point ------------------------------------------------------------------


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    args = parse_args(argv)
    if not (SRC / "hilbhodge" / "cli.py").is_file():
        print(f"error: {SRC / 'hilbhodge'} not found; run from the root of a hilbhodge checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    host = HostSpeed(env, deadline)
    setup_times = []
    for _ in range(SETUPS):
        host.maybe_probe()
        start = time.perf_counter()
        shutil.rmtree(ROOT / workdir, ignore_errors=True)
        (ROOT / workdir).mkdir(parents=True)
        warm = spawn([sys.executable, "-m", "hilbhodge.cli", "--help"], env, deadline)
        if warm.rc != 0:
            print(f"error: warm-up launch exited {warm.rc}: {warm.err.decode()[-300:]}",
                  file=sys.stderr)
            return 2
        commands = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_times.append(time.perf_counter() - start)

    runner = Runner(commands, workdir, env, deadline, host)
    if args.trace:
        metrics = runner.traced(args.seconds)
    else:
        metrics = runner.plain(args.seconds)
        metrics = {"setup_s": (median(setup_times) / host.factor(), "s"), **metrics}

    print("environment " + json.dumps(environment(env, deadline)))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {runner.failed / runner.attempted:.6g} 1 "
          f"({runner.failed} of {runner.attempted} commands)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
