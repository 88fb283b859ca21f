"""Run one benchmark workload against the modinv sources and print its metrics.

    python3 benchmarks/run.py --workload ty_center --seed 1 --seconds 30 --trace 0

One caller runs the workload's cases in a closed loop: each case starts when
the previous one has returned.  A pass runs every case once, in an order
shuffled from ``--seed``; passes repeat while another one still fits in
``--seconds`` (at least one pass always runs).  Every case checks its result
exactly.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the same untraced passes run first as the reference, then the tracer wraps
the layers' public functions and exactly one traced pass runs; the metrics
are the per-layer ones and the spans are written to ``benchmarks/.trace/``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 4  # extra set-ups in fresh processes; setup_s is the median
PROBE_TIMEOUT_S = 120

# The host's speed swings by up to ~1.7x within seconds (other tenants share
# its cores), so every reported time is scaled to a nominal host speed.  While
# a case or a set-up runs, a timer interrupts it every SAMPLE_INTERVAL_S to time
# one reference sample: SAMPLE_REPS sparse Fraction polynomial products, the
# kind of work Cyclotomic arithmetic does, using no modinv code.  Reported time
# = (wall time - sampling time) * SAMPLE_NOMINAL_S / mean sample time.
SAMPLE_REPS = 10
SAMPLE_NOMINAL_S = 0.004
SAMPLE_INTERVAL_S = 0.05
MIN_SAMPLES = 5  # work too short for this many is topped up right after it
_REF_A = {k: Fraction(k + 1, 7) for k in range(0, 24, 3)}
_REF_B = {k: Fraction(5, k + 2) for k in range(1, 24, 2)}


def load_package():
    """Put the checkout's sources first on the path; fail if they are missing."""
    if not (SRC / "modinv" / "__init__.py").is_file():
        sys.exit(f"error: modinv sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import modinv

    if Path(modinv.__file__).resolve().parent != SRC / "modinv":
        sys.exit(f"error: imported modinv from {modinv.__file__}, not from {SRC}")


def reference_sample():
    for _ in range(SAMPLE_REPS):
        terms = {}
        for k1, c1 in _REF_A.items():
            for k2, c2 in _REF_B.items():
                k = (k1 + k2) % 24
                acc = terms.get(k)
                terms[k] = c1 * c2 if acc is None else acc + c1 * c2


class SpeedSampler:
    """Context manager that samples the host's speed while the work inside runs.

    On exit, ``wall`` is the work's wall time without the sampling and
    ``speed`` the nominal over the measured mean sample time.  With a tracer,
    each sample is recorded as a ``bench.sampler`` span, so it is not counted
    in the self time of the span it interrupted.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.armed = False

    def _on_alarm(self, signum, frame):
        if self.armed:
            self._sample()

    def _sample(self):
        t0 = time.perf_counter()
        reference_sample()
        t1 = time.perf_counter()
        self.spent += t1 - t0
        self.samples += 1
        if self.tracer is not None:
            self.tracer.add_span("bench.sampler", t0, t1)

    def __enter__(self):
        self.spent, self.samples = 0.0, 0
        self.armed = True
        signal.signal(signal.SIGALRM, self._on_alarm)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.armed = False
        self.wall = time.perf_counter() - self._start - self.spent
        while self.samples < MIN_SAMPLES:
            self._sample()
        self.speed = SAMPLE_NOMINAL_S * self.samples / self.spent


def tail(values):
    """(value, percentile, sample count) of the highest percentile with ten samples beyond it.

    That percentile is p90 or above only from 100 samples on; below that it
    would sit near the median, so the maximum is reported as p100.
    """
    xs = sorted(values)
    n = len(xs)
    if n >= 100:
        k = n - 11
        return xs[k], 100.0 * (k + 1) / n, n
    return xs[-1], 100.0, n


def run_passes(m, cases, rng, seconds, max_passes=None, tracer=None):
    """Run whole passes and return the per-case records.

    ``wall_s`` is a case's wall time without the speed sampling, and
    ``case_s`` that time scaled to the nominal host speed.
    """
    records, passes = [], 0
    sampler = SpeedSampler(tracer)
    start = time.perf_counter()
    while True:
        order = list(cases)
        rng.shuffle(order)
        pass_start = time.perf_counter()
        for case in order:
            if tracer is not None:
                tracer.case = case.id
            try:
                with sampler:
                    sizes, ok = case.run(m), True
            except Exception as exc:
                traceback.print_exc()
                sizes, ok = {"error": f"{type(exc).__name__}: {exc}"}, False
            record = {
                "case": case.id, "pass": passes, "case_s": sampler.wall * sampler.speed,
                "wall_s": sampler.wall, "host_speed": sampler.speed, "ok": ok, **sizes,
            }
            if tracer is not None:
                record["traced"] = True
            print(json.dumps(record), flush=True)
            records.append(record)
        passes += 1
        if max_passes is not None and passes >= max_passes:
            break
        now = time.perf_counter()
        if (now - start) + (now - pass_start) > seconds:
            break
    return records


def cases_per_min(records):
    return 60.0 * len(records) / sum(r["case_s"] for r in records)


def probe_setup(args):
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--setup-probe"]
    for case_id in args.case or ():
        cmd += ["--case", case_id]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(records, setups):
    times = [r["case_s"] for r in records]
    tail_s, pct, n = tail(times)
    print(f"# case_s.tail is p{pct:.4g} of n={n} cases; case_s.p50 of n={n}")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "case_s.p50": (statistics.median(times), "s"),
        "case_s.tail": (tail_s, "s"),
        "cases_per_min": (cases_per_min(records), "1/min"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--case", action="append", help="run only this case id (repeatable)")
    ap.add_argument("--setup-probe", action="store_true", help="only time set-up and print it")
    args = ap.parse_args(argv)

    load_package()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    try:
        with SpeedSampler() as sampler:
            m, cases = workloads.setup(args.workload, args.case)
    except ValueError as exc:
        ap.error(str(exc))
    setup_s = sampler.wall * sampler.speed
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rng = random.Random(args.seed)
    records = run_passes(m, cases, rng, args.seconds)
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_passes(m, cases, rng, args.seconds, max_passes=1, tracer=tracer)
        finally:
            tracer.uninstall()
        overhead = cases_per_min(traced) / cases_per_min(records)
        speed = statistics.median(r["host_speed"] for r in traced)
        sizes = [r for r in traced if r["ok"]]
        metrics = tracer.metrics(len(traced), sizes, overhead, speed)
        tracer.dump(
            HERE / ".trace" / f"{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "cases": traced},
        )
        records = records + traced
    else:
        setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
        metrics = end_to_end(records, setups)

    failed = sum(not r["ok"] for r in records)
    print(f"# {args.workload}: {len(records)} cases attempted, {failed} failed, failed_frac={failed / len(records):.4g}")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
