"""The mdtk benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses the package under src/.  The
workloads, their metrics and why each exists are listed in BENCHMARK.json.

Load is a closed loop with one client: one item at a time, no threads, and
at most one child process at a time.  An in-process pass (verify-ladder,
galois-sweep) runs in a fresh child interpreter, so no mdtk cache survives
from one pass to the next and memory is measured per pass.  A cli-session
pass runs each `mdtk` command in its own interpreter.

Without --trace the run repeats passes while the next one is expected to
end within --seconds (at least one pass) and prints the end-to-end metrics,
with times scaled to the reference speed of calib.py.
With --trace it runs one untraced and one traced pass plus the cyclo kernel
probe and prints the per-layer metrics.  Every item's output is checked; the
last line of stdout is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import cli_session  # noqa: E402
import inputs  # noqa: E402
from tracing import merge  # noqa: E402

WORKLOADS = ("verify-ladder", "galois-sweep", "cli-session")
ITEM_LABELS = {
    "verify-ladder": [row[0] for row in inputs.VERIFY_LADDER],
    "galois-sweep": [row[0] for row in inputs.GALOIS_SWEEP],
}
SETUP_REPEATS = 9
DEADLINE_S = 170.0  # every child is killed by then, inside the 180 s limit
CLI_ENTRY = "import sys; from mdtk.catalog_cli import main; sys.exit(main())"


class Pass:
    def __init__(self):
        self.labels: list[str] = []
        self.seconds: list[float | None] = []  # latency per item, None if it failed
        self.errors: list[str] = []  # per item, "" when correct
        self.rss_kb = 0
        self.elapsed = 0.0  # parent-side duration, including child start-up
        self.scale = 1.0  # to the reference speed, from the pass's calibration loops
        self.totals: dict = {}
        self.spans: list = []

    def add(self, label: str, seconds: float | None, error: str) -> None:
        self.labels.append(label)
        self.seconds.append(None if error else seconds)
        self.errors.append(error)

    @property
    def wall(self) -> float:
        return sum(s for s in self.seconds if s is not None)


class Bench:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.t_start = time.perf_counter()
        self.work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.params = inputs.cli_params(seed)
        self.refs: dict = {}
        self._child = None

    # -- child processes

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.t_start)

    def child(self, argv, stdout, cwd=None, wait_ready=False) -> dict:
        """Run one child to completion, killing it at the run deadline.
        Returns its exit code, time to its "ready" line, duration and peak
        RSS (from wait4, so per child)."""
        with open(self.work / "stderr.log", "wb") as err:
            t0 = time.perf_counter()
            p = subprocess.Popen(argv, stdout=stdout, stderr=err, cwd=cwd, env=self.env)
        self._child = p
        signal.signal(signal.SIGALRM, lambda *_: p.kill())
        signal.setitimer(signal.ITIMER_REAL, max(self.remaining(), 0.01))
        ready = None
        try:
            if wait_ready:
                if p.stdout.readline().strip() == b"ready":
                    ready = time.perf_counter() - t0
                p.stdout.read()
            _, status, ru = os.wait4(p.pid, 0)
            t1 = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if p.stdout:
                p.stdout.close()
        p.returncode = os.waitstatus_to_exitcode(status)
        self._child = None
        return {"rc": p.returncode, "ready": ready, "seconds": t1 - t0, "rss_kb": ru.ru_maxrss}

    def stop_child(self) -> None:
        p = self._child
        if p is not None and p.returncode is None:
            p.kill()
            p.wait()

    def stderr_tail(self) -> str:
        text = (self.work / "stderr.log").read_text(errors="replace").strip()
        return text.splitlines()[-1] if text else ""

    def worker(self, mode: str, out: Path, *extra, wait_ready=False) -> dict:
        argv = [sys.executable, str(HERE / "worker.py"), mode, self.workload, str(self.seed), str(out), *extra]
        return self.child(argv, subprocess.PIPE if wait_ready else subprocess.DEVNULL, wait_ready=wait_ready)

    # -- set-up and passes

    def setup_once(self) -> tuple[float, float]:
        """Spawn to ready: import, seeded inputs and oracle references.  A
        cli-session set-up computes the in-process references.  Returns the
        time and a calibration loop time taken just before."""
        spin = calib.spin()
        out = self.work / "setup.json"
        r = self.worker("setup", out, wait_ready=True)
        if r["rc"] != 0 or r["ready"] is None:
            raise RuntimeError(f"set-up failed: {self.stderr_tail()}")
        if self.workload == "cli-session":
            self.refs = json.loads(out.read_text())
        return r["ready"], spin

    def run_pass(self, traced: bool) -> Pass:
        t0 = time.perf_counter()
        ps = self.cli_pass(traced) if self.workload == "cli-session" else self.inprocess_pass(traced)
        ps.elapsed = time.perf_counter() - t0
        return ps

    def inprocess_pass(self, traced: bool) -> Pass:
        ps = Pass()
        out, spans = self.work / "pass.json", self.work / "spans.json"
        out.unlink(missing_ok=True)
        r = self.worker("trace" if traced else "pass", out, str(spans))
        if r["rc"] != 0 or not out.exists():
            err = f"pass child exited with {r['rc']}: {self.stderr_tail()}"
            for label in ITEM_LABELS[self.workload]:
                ps.add(label, None, err)
            return ps
        res = json.loads(out.read_text())
        for item in res["items"]:
            ps.add(item["label"], item["seconds"], item["error"])
        ps.rss_kb = res["rss_kb"]
        if res["spins"]:
            ps.scale = calib.scale(res["spins"])
        if traced:
            ps.totals = res["totals"]
            ps.spans = json.loads(spans.read_text())
        return ps

    def cli_pass(self, traced: bool) -> Pass:
        ps = Pass()
        pass_dir = self.work / "session"
        shutil.rmtree(pass_dir, ignore_errors=True)
        pass_dir.mkdir()
        summary = self.work / "summary.json"
        spins = [calib.spin()]
        for i, cmd in enumerate(cli_session.session(self.params)):
            label = " ".join(cmd["argv"])
            if self.remaining() <= 0:
                ps.add(label, None, "run deadline reached")
                continue
            if traced:
                argv = [sys.executable, str(HERE / "cli_shim.py"), str(summary), "--", *cmd["argv"]]
            else:
                argv = [sys.executable, "-c", CLI_ENTRY, *cmd["argv"]]
            stdout_path = self.work / "stdout.txt"
            with open(stdout_path, "wb") as fh:
                r = self.child(argv, fh, cwd=pass_dir)
            ps.rss_kb = max(ps.rss_kb, r["rss_kb"])
            if r["rc"] != 0:
                err = f"exit {r['rc']}: {self.stderr_tail()}"
            else:
                try:
                    err = cli_session.check(cmd, stdout_path.read_text(), str(pass_dir), self.refs, self.params)
                except (KeyError, TypeError, ValueError, OSError) as e:
                    err = f"unreadable output: {type(e).__name__}: {e}"
            ps.add(label, r["seconds"], err)
            spins += calib.spins_after(r["seconds"])
            if traced and r["rc"] == 0:
                s = json.loads(summary.read_text())
                ps.totals = merge(ps.totals, s["totals"])
                ps.spans.extend([row[0], i, *row[2:]] for row in s["spans"])
                ps.totals = merge(ps.totals, {"catalog_cli.command_s": r["seconds"]})
        shutil.rmtree(pass_dir, ignore_errors=True)
        ps.scale = calib.scale(spins)
        return ps

    # -- runs

    def timed_run(self, seconds: float) -> tuple[dict, list[Pass], list[str]]:
        setups = [self.setup_once() for _ in range(SETUP_REPEATS)]
        passes: list[Pass] = []
        t0 = time.perf_counter()
        while True:
            passes.append(self.run_pass(traced=False))
            next_pass = statistics.median(p.elapsed for p in passes)
            if time.perf_counter() - t0 + next_pass > seconds or self.remaining() < next_pass:
                break
        # times at the reference speed of calib.py; an item's latency is its
        # median over the passes, so a burst of host noise moves it less
        per_item, raw = {}, {}
        for i, label in enumerate(passes[0].labels):
            ok = [p for p in passes if p.seconds[i] is not None]
            if ok:
                per_item[label] = statistics.median(p.seconds[i] * p.scale for p in ok)
                raw[label] = statistics.median(p.seconds[i] for p in ok)
        setup_times = [t for t, _ in setups]
        metrics = {
            "wall_s": sum(per_item.values()) if per_item else float("nan"),
            "setup_s": statistics.median(setup_times) * calib.scale([s for _, s in setups]),
            "peak_rss_mb": statistics.median(p.rss_kb for p in passes) / 1024,
        }
        lat = sorted(s * p.scale for p in passes for s in p.seconds if s is not None)
        notes = [
            f"passes {len(passes)}, item samples {len(lat)}, set-ups {len(setups)}",
            f"error_rate {_error_rate(passes):.4f} (failed items / attempted items)",
            f"unscaled: wall {sum(raw.values()):.4f} s, set-up {statistics.median(setup_times):.4f} s; "
            f"speed scale per pass {', '.join(f'{p.scale:.3f}' for p in passes)}",
        ]
        # item latency percentiles are printed but are not end-to-end
        # metrics: a pass has only 7 or 8 items of very different cost on
        # the in-process workloads, so they spread too much between runs
        if per_item:
            notes.append(f"item_p50_s {statistics.median(per_item.values()):.6f} s over {len(per_item)} items")
        # the 90th percentile only where at least ten samples lie beyond it
        if len(lat) >= 100:
            p90 = statistics.quantiles(lat, n=10)[-1]
            notes.append(f"item_p90_s {p90:.6f} s over {len(lat)} item samples")
        notes += [f"item {s:10.6f} s  {label}" for label, s in per_item.items()]
        return metrics, passes, notes

    def traced_run(self) -> tuple[dict, list[Pass], list[str]]:
        if self.workload == "cli-session":
            self.setup_once()
        plain = self.run_pass(traced=False)
        traced = self.run_pass(traced=True)
        probe_out = self.work / "probe.json"
        r = self.worker("probe", probe_out)
        if r["rc"] != 0:
            raise RuntimeError(f"cyclo probe failed: {self.stderr_tail()}")
        t = traced.totals
        metrics = dict(t)
        metrics.update(json.loads(probe_out.read_text()))
        metrics["modular.verlinde_share"] = t.get("modular.verlinde_fusion_s", 0.0) / traced.wall
        if self.workload == "cli-session":
            metrics["catalog_cli.process_overhead_s"] = t["catalog_cli.command_s"] - t["catalog_cli.main_s"]
        else:  # no interpreter is started per item
            metrics["catalog_cli.import_s"] = metrics["catalog_cli.process_overhead_s"] = 0.0
        metrics["trace.overhead_s"] = traced.wall - plain.wall
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{self.workload}-seed{self.seed}.json"
        spans_path.write_text(json.dumps(
            {"columns": ["name", "item", "parent", "start", "end", "self_s"], "spans": traced.spans}
        ))
        notes = [
            f"traced wall {traced.wall:.4f} s, untraced wall {plain.wall:.4f} s "
            f"(base of modular.verlinde_share)",
            f"error_rate {_error_rate([plain, traced]):.4f} (failed items / attempted items)",
            f"{len(traced.spans)} spans written to {spans_path.relative_to(ROOT)}",
        ]
        return metrics, [plain, traced], notes


def _error_rate(passes: list[Pass]) -> float:
    attempted = sum(len(p.errors) for p in passes)
    return sum(1 for p in passes for e in p.errors if e) / max(attempted, 1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "mdtk" / "__init__.py").is_file():
        print(f"perfbench: no mdtk package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # one CPU for the parent and every child, so the calibration loops run
    # where the items run
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    bench = Bench(args.workload, args.seed)
    bench.work.mkdir(parents=True)
    try:
        metrics, passes, notes = bench.traced_run() if args.trace else bench.timed_run(args.seconds)
    finally:
        bench.stop_child()
        shutil.rmtree(bench.work, ignore_errors=True)
        if bench.work.parent.is_dir() and not any(bench.work.parent.iterdir()):
            bench.work.parent.rmdir()

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    for line in notes:
        print(f"# {line}")
    errors = [e for p in passes for e in p.errors if e]
    for e in sorted(set(errors)):
        print(f"# FAILED: {e}")
    for m in wanted:
        v = metrics[m["name"]]
        print(f"{m['name']:40} {v if isinstance(v, int) else format(v, '.6g')} {m['unit']}")
    attempted = sum(len(p.errors) for p in passes)
    result = {
        "correct": not errors and attempted > 0,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
