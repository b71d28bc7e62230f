"""Benchmark worker: one fresh process that runs a workload's files through
`sectional.cli.main`.

    python3 bench/worker.py setup WORKDIR
    python3 bench/worker.py run WORKDIR PASSES
    python3 bench/worker.py trace WORKDIR

`setup` times `import sectional` plus `parse_workspace` of every generated
file and exits. `run` does the same, then runs every file PASSES times, one
after another. `trace` runs one plain pass, one pass under the span recorder
and one counting pass. The result is one JSON line on stdout.

WORKDIR holds `files/*.json` and `manifest.json`; the worker runs from inside
WORKDIR and passes relative paths, so reports name the same paths on every run.

Host speed. The shared host's speed swings by up to 2x from one second to the
next, per CPU. The worker times a fixed calibration loop (no `sectional` code)
every 50 ms from a SIGALRM handler, subtracts those interruptions from every
timed call and reports, per call, the mean calibration time around it; run.py
scales each time t to t * PROBE_REF_S / probe, seconds at reference speed.
"""

import bisect
import os
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# What one calibration run takes on the 2-CPU reference box.
PROBE_REF_S = 0.001
SAMPLE_PERIOD_S = 0.05
# A call's speed is the mean of the samples taken during it and this long
# before and after it.
MARGIN_S = 0.25


def _calibration_work() -> int:
    """Fixed pure-Python work (tuple, dict, list and integer operations)."""
    table = {}
    acc = 0
    for i in range(600):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i * 7 % 11
        acc = (acc * 31 + i) % 1000003
        row = [x * acc % 17 for x in range(8)]
        if row[3] == 5:
            acc += 1
    return acc


def probe(runs: int = 15) -> float:
    """Median seconds of back-to-back calibration runs."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        _calibration_work()
        times.append(time.perf_counter() - t0)
    return sorted(times)[runs // 2]


class SpeedSampler:
    """Runs the calibration loop every SAMPLE_PERIOD_S of wall time, in the
    main thread between bytecodes, and keeps (start, seconds) per run."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _handler(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        _calibration_work()
        self.samples.append((t0, time.perf_counter() - t0))

    def start(self) -> None:
        for _ in range(5):  # so the first call already has samples before it
            self._handler(None, None)
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, calls: list) -> None:
        """Take the sampler's own time out of each call's wall and CPU time
        and set its probe: the mean sample over [t0 - MARGIN_S, t1 + MARGIN_S]."""
        starts = [t for t, _d in self.samples]
        for call in calls:
            t0, t1 = call.pop("start"), call.pop("end")
            lo = bisect.bisect_left(starts, t0 - MARGIN_S)
            hi = bisect.bisect_right(starts, t1 + MARGIN_S)
            near = [d for _t, d in self.samples[lo:hi]] or [d for _t, d in self.samples[-3:]]
            inside = sum(d for t, d in self.samples[lo:hi] if t0 <= t <= t1)
            call["wall_s"] -= inside
            call["cpu_s"] -= inside
            call["probe_s"] = sum(near) / len(near)
            call["t0"] = t0


def setup(workdir: str) -> tuple[float, float]:
    """(seconds to import sectional and parse every generated file, probe)."""
    before = probe()
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import sectional.cli  # noqa: F401
    from sectional.workspace import parse_workspace

    files = os.path.join(workdir, "files")
    for name in sorted(os.listdir(files)):
        with open(os.path.join(files, name), encoding="utf-8") as fh:
            parse_workspace(fh.read(), path=name)
    elapsed = time.perf_counter() - t0
    return elapsed, (before + probe()) / 2


def main(argv) -> int:
    mode, workdir = argv[0], os.path.abspath(argv[1])
    setup_s, setup_probe = setup(workdir)
    if mode == "setup":
        print(f'{{"setup_s": {setup_s!r}, "probe_s": {setup_probe!r}}}')
        return 0

    import contextlib
    import hashlib
    import io
    import json
    import resource
    import traceback

    from sectional import cli

    os.chdir(workdir)
    with open("manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    os.makedirs("out", exist_ok=True)
    sampler = SpeedSampler()

    def run_pass(keep_outputs: bool) -> dict:
        """One call of cli.main per file; times only the calls themselves."""
        calls = []
        digest = hashlib.sha256()
        for entry in manifest:
            out_path = entry.get("out")
            if out_path and os.path.exists(out_path):
                os.remove(out_path)
            stdout, stderr = io.StringIO(), io.StringIO()
            error = ""
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                c0 = time.process_time()
                t0 = time.perf_counter()
                try:
                    rc = cli.main(entry["argv"])
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 2
                except Exception:  # a traceback is an outcome: it counts as an error
                    rc = -1
                    error = traceback.format_exc()
                t1 = time.perf_counter()
                c1 = time.process_time()
            written = ""
            if out_path and os.path.exists(out_path):
                with open(out_path, encoding="utf-8") as fh:
                    written = fh.read()
            record = {"name": entry["name"], "rc": rc, "start": t0, "end": t1,
                      "wall_s": t1 - t0, "cpu_s": c1 - c0}
            for part in (entry["name"], str(rc), stdout.getvalue(), written):
                digest.update(part.encode("utf-8"))
                digest.update(b"\0")
            if keep_outputs:
                record.update(stdout=stdout.getvalue(), stderr=stderr.getvalue(),
                              written=written, error=error)
            calls.append(record)
        return {"calls": calls, "digest": digest.hexdigest()}

    result = {"setup_s": setup_s, "probe_s": setup_probe}
    sampler.start()
    try:
        if mode == "run":
            result["passes"] = [run_pass(keep_outputs=(i == 0)) for i in range(int(argv[2]))]
        elif mode == "trace":
            sys.path.insert(0, os.path.join(ROOT, "bench"))
            from tracer import Counters, SpanRecorder

            plain = run_pass(keep_outputs=True)
            recorder = SpanRecorder()
            recorder.install()
            try:
                traced = run_pass(keep_outputs=False)
            finally:
                recorder.restore()
            counters = Counters()
            counters.install()
            try:
                counted = run_pass(keep_outputs=False)
            finally:
                counters.restore()
            result["passes"] = [plain, traced, counted]
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        sampler.stop()
    for p in result["passes"]:
        sampler.scale(p["calls"])
    if mode == "trace":
        starts = [c["t0"] for c in traced["calls"]]
        scales = [PROBE_REF_S / c["probe_s"] for c in traced["calls"]]

        def scale_at(t: float) -> float:
            return scales[max(0, bisect.bisect_right(starts, t) - 1)]

        result["spans"] = recorder.summary(scale_at)
        result["span_count"] = len(recorder.spans)
        result["counters"] = {k: v for k, v in vars(counters).items()
                              if not k.startswith("_")}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
