"""The homprop benchmark: one client, one process, one thread, closed loop.

    python3 bench/run.py --workload tower-check --seed 1 --seconds 36 --trace 0

Set-up imports homprop from ``src/``, writes the workload's seeded inputs
through ``homprop.serialize`` and runs a small warm-up; it is repeated
``SETUP_REPEATS`` times and ``setup_s`` is the median.  Then the client
runs passes over the workload's fixed command list, each command calling
``homprop.cli.main`` (or a presentation round trip) in-process, until the
next pass would not fit in ``--seconds``.  Every verdict is compared with
the one known from how the input was built; every mismatch is printed and
makes the exit code 1.

Every reported time is scaled to a reference speed.  While set-up and the
untraced passes run, a timer interrupts the client every
``REF_INTERVAL_S`` to run a fixed reference sample that does not use
homprop; the time it takes is left out of the measured times.  A measured
time is reported as ``wall * REF_NOMINAL_S / mean time of the samples
taken while it was measured`` (see ``Pace.scale``).  The machine's speed
drifts by up to 2x over tens of seconds, and the scaling cancels most of
that drift.  The wall times are printed on the ``# wall seconds`` line.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` passes alternate between untraced and traced, the spans are
written under ``.bench_trace/`` and the last line reports the per-layer
metrics.  ``--workload all`` runs every workload, each in its own process.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("tower-check", "twist-suite", "presentation-roundtrip")
SETUP_REPEATS = 5
REF_INTERVAL_S = 0.05
REF_MIN_SAMPLES = 10
# About the mean reference sample time on the 2-core machine this was tuned on.
REF_NOMINAL_S = 0.0028


def reference_sample() -> float:
    """Seconds for a fixed piece of exact arithmetic, hashing and allocation
    that does not use homprop."""
    t0 = time.perf_counter()
    a = [[Fraction(i * 7 + j * 3 + 1, j + 2) for j in range(8)] for i in range(8)]
    prod = [[sum((a[i][k] * a[k][j] for k in range(8)), Fraction(0)) for j in range(8)]
            for i in range(8)]
    edges = [frozenset((("v", i, k), ("o", j, v.denominator % 5)) for k in range(3))
             for i, row in enumerate(prod) for j, v in enumerate(row)]
    index = {e: n for n, e in enumerate(edges)}
    sorted(index.values(), key=lambda n: (n % 7, -n))
    return time.perf_counter() - t0


class Pace:
    """Reference samples taken on a timer while the pace is entered.

    Every ``REF_INTERVAL_S`` a SIGALRM handler runs one reference sample in
    the main thread, so the samples spread evenly over the measured work.
    ``stolen`` is the time the handler took; ``run_case`` subtracts it."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.stolen = 0.0
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        try:
            self.samples.append(reference_sample())
        finally:
            self.stolen += time.perf_counter() - t0
            self._busy = False

    def __enter__(self) -> "Pace":
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def scale(self, wall: float, lo: int = 0, hi: int | None = None) -> float:
        """``wall`` in reference time, by the samples ``lo:hi`` taken while it
        was measured, widened on both sides to REF_MIN_SAMPLES when fewer."""
        n = len(self.samples)
        hi = n if hi is None else hi
        while hi - lo < REF_MIN_SAMPLES and (lo > 0 or hi < n):
            lo, hi = max(0, lo - 1), min(n, hi + 1)
        return wall * REF_NOMINAL_S / statistics.fmean(self.samples[lo:hi])


def _fresh_import():
    """Import homprop and the input module afresh."""
    for name in [n for n in sys.modules if n == "homprop" or n.startswith("homprop.")]:
        del sys.modules[name]
    sys.modules.pop("inputs", None)
    import inputs

    return inputs


def set_up(workload: str, seed: int, workdir: Path):
    """Import, build and write the inputs, warm up; returns the inputs and
    the verdict mismatches of the warm-up."""
    inputs = _fresh_import()
    built = inputs.Inputs(workload, seed, workdir)
    return built, [m for case in built.warmup for m in run_case(case)[1]]


def run_case(case, pace: Pace | None = None) -> tuple[float, list[str]]:
    stolen = pace.stolen if pace else 0.0
    t0 = time.perf_counter()
    try:
        got = case.run()
    except Exception as e:  # a raised command is a wrong verdict, not a crash
        got = f"raised {type(e).__name__}: {e}"
    elapsed = time.perf_counter() - t0 - ((pace.stolen if pace else 0.0) - stolen)
    if got != case.expected:
        return elapsed, [f"{case.label}: expected {case.expected!r}, got {got!r}"]
    return elapsed, []


def run_pass(cases, pace: Pace) -> tuple[float, float, float, list[str]]:
    """One sampled pass over the command list: (wall seconds, pass seconds,
    slowest command, mismatches).  The pass is scaled by the samples taken
    during it and each command by those taken during that command."""
    gc.collect()
    timed, wrong = [], []
    first = len(pace.samples)
    for case in cases:
        lo = len(pace.samples)
        elapsed, bad = run_case(case, pace)
        timed.append((elapsed, lo, len(pace.samples)))
        wrong += bad
    took = sum(t for t, _, _ in timed)
    slowest = max(pace.scale(*t) for t in timed)
    return took, pace.scale(took, first, len(pace.samples)), slowest, wrong


def run_traced_pass(cases, tracer) -> tuple[float, list[str]]:
    """One pass with spans recorded and no sampling: (wall seconds, mismatches)."""
    gc.collect()
    took, wrong = 0.0, []
    for n, case in enumerate(cases):
        tracer.command = n
        elapsed, bad = run_case(case)
        took += elapsed
        wrong += bad
    return took, wrong


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float, traced: bool) -> int:
    import spans

    setup_pace, pace = Pace(), Pace()
    setup_walls, windows, wrong = [], [], []
    walls, passes, slowest, traced_walls, tracers = [], [], [], [], []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_work-") as tmp:
        for rep in range(SETUP_REPEATS):
            workdir = Path(tmp) / str(rep)
            workdir.mkdir()
            with setup_pace:
                stolen, lo, t0 = setup_pace.stolen, len(setup_pace.samples), time.perf_counter()
                built, bad = set_up(workload, seed, workdir)
                setup_walls.append(time.perf_counter() - t0 - (setup_pace.stolen - stolen))
            windows.append((lo, len(setup_pace.samples)))
            wrong += bad
        setup_times = [setup_pace.scale(w, *lh) for w, lh in zip(setup_walls, windows)]
        attempted = SETUP_REPEATS * len(built.warmup)
        cases = built.cases

        deadline = time.perf_counter() + seconds
        lengths = []
        while True:
            t0 = time.perf_counter()
            if traced and len(walls) > len(traced_walls):
                tracer = spans.Tracer()
                tracer.install()
                try:
                    took, bad = run_traced_pass(cases, tracer)
                finally:
                    tracer.uninstall()
                traced_walls.append(took)
                tracers.append(tracer)
            else:
                with pace:
                    took, scaled, slow, bad = run_pass(cases, pace)
                walls.append(took)
                passes.append(scaled)
                slowest.append(slow)
            lengths.append(time.perf_counter() - t0)
            attempted += len(cases)
            wrong += bad
            # Stop when the next pass would not fit, once there is a pass of each kind.
            if (traced_walls or not traced) and deadline - time.perf_counter() < statistics.median(lengths):
                break

    for line in wrong:
        print(f"MISMATCH {workload} seed {seed}: {line}")
    print(f"# {workload} seed {seed}: {len(cases)} commands a pass, {len(walls)} untraced "
          f"and {len(traced_walls)} traced passes, {SETUP_REPEATS} set-ups; "
          f"input properties {json.dumps(built.properties(), sort_keys=True)}")
    print(f"# wall seconds: untraced passes {[round(t, 3) for t in walls]}, "
          f"traced passes {[round(t, 3) for t in traced_walls]}, "
          f"set-ups {[round(t, 3) for t in setup_walls]}; "
          f"reference sample {1000 * statistics.fmean(setup_pace.samples):.2f} ms in set-up, "
          f"{1000 * statistics.fmean(pace.samples):.2f} ms in passes "
          f"(nominal {1000 * REF_NOMINAL_S:g} ms)")
    if traced:
        units = trace_units()
        metrics = per_layer(tracers, statistics.median(walls), statistics.median(traced_walls))
        result = {k: _metric(pace.scale(v) if units[k] == "s" else v, units[k])
                  for k, v in metrics.items()}
        trace_dir = ROOT / ".bench_trace" / f"{workload}-seed{seed}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        for n, t in enumerate(tracers):
            t.write(trace_dir / f"pass{n}")
        print(f"# spans of {len(tracers)} traced pass(es) written to {trace_dir}")
    else:
        result = {
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "pass_s": _metric(statistics.median(passes), "s"),
            "slowest_verdict_s": _metric(statistics.median(slowest), "s"),
            "peak_rss_mib": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                    "MiB"),
        }
    for name, m in result.items():
        print(f"{workload:24s} {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"{workload:24s} {'wrong_verdict_frac':40s} {len(wrong) / attempted:>16.6g} ratio "
          f"({len(wrong)} of {attempted} commands)")
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": len(wrong), "metrics": result}))
    return 1 if wrong else 0


def per_layer(tracers, pass_s: float, traced_s: float) -> dict:
    """Medians over the traced passes; counts must agree between them."""
    import spans

    runs = [spans.layer_metrics(t) for t in tracers]
    out = {}
    for key in runs[0]:
        values = [r[key] for r in runs]
        if len(set(values)) == 1:
            out[key] = values[0]
        elif key in spans.EXACT_COUNTS:
            raise RuntimeError(f"{key} differs between traced passes: {values}")
        else:
            out[key] = statistics.median(values)
    out["trace.overhead_frac"] = (traced_s - pass_s) / pass_s
    return out


def trace_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_all(args) -> int:
    codes = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        codes.append(proc.returncode)
    return max(codes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "homprop" / "__init__.py").is_file():
        print(f"error: no homprop sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
