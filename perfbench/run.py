"""facetproc benchmark: one workload, timed untraced, optionally traced.

    python3 perfbench/run.py --workload chain-counts --seed 1 --seconds 25 \\
        --trace 0

Runs from the root of a source checkout and imports the package from
``src``.  It measures set-up (median of fresh interpreters that import
facetproc and build the workload inputs), then repeats passes over the
workload's tasks until ``--seconds`` are used.  Pass 0 runs the inputs
made from ``--seed``, pass k those made from ``--seed`` and k, all of one
size.  Pass 0's outputs are checked against independent oracles, and
every pass's against the recorded values of the seed code
(``golden.json``).  Times are in seconds at the reference speed (see
``HostClock``); end-to-end metrics are medians over the untraced passes.  With ``--trace 1`` half the
time goes to untraced passes and pass 0's inputs run once more under the
tracer; that pass must reproduce pass 0's result files byte for byte, and
the per-layer metrics come from its spans.  The last line of standard
output is the JSON result; files go to ``.perfbench-work/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench-work"
GOLDEN = BENCH / "golden.json"
SCALE = 0.5
SETUP_PROBES = 5
FLOAT_RTOL = 1e-12
# reference() seconds on the baseline machine in its fast state
REF_S = 0.0015
REF_ITERATIONS = 10_000
SAMPLE_S = 0.05


def import_package():
    """Import facetproc from this checkout's src, or exit with code 2."""
    src = ROOT / "src"
    if not (src / "facetproc" / "__init__.py").is_file():
        print(f"error: no facetproc sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import facetproc
    if Path(facetproc.__file__).resolve().parent != src / "facetproc":
        print("error: facetproc imported from outside the checkout",
              file=sys.stderr)
        raise SystemExit(2)


# ---------------------------------------------------------------------------
# host-normalized time


def reference() -> float:
    """A fixed interpreter-bound loop, like the package's hot loops."""
    rng = random.Random(20150101)
    stack: list[float] = []
    acc = 0.0
    log = math.log
    for _ in range(REF_ITERATIONS):
        u = rng.random()
        if u < 0.5:
            stack.append(u)
            acc += log(u + 1.0)
        elif stack:
            acc -= stack.pop()
    return acc


class HostClock:
    """Times sections of work in seconds at the reference speed.

    On the 2-core Xeon host the baseline was measured on, any process
    runs up to 1.8x slower for a second to minutes at a time (most likely
    a co-tenant on the sibling hyperthreads; CPU time slows as much as
    wall time).  So the speed of the host is sampled while the work runs: inside the context, a timer
    signal every SAMPLE_S seconds times reference() in the main thread,
    and every timed section is bracketed by two more samples.  A section's
    factor, REF_S times the mean inverse sample over the section, turns
    its raw seconds into seconds at the reference speed.  Samples and
    other book-keeping inside a section (``aside``) are left out of its
    raw time.
    """

    def __init__(self, sampling: bool = True):
        self.samples: list[float] = []
        self.aside_s = 0.0
        self._sampling = sampling
        self._busy = False
        self._saved = None

    def __enter__(self):
        if self._sampling:
            self._saved = signal.signal(signal.SIGALRM,
                                        lambda *_: self.probe())
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        if self._sampling:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._saved)
        return False

    def probe(self) -> None:
        """Append the seconds reference() takes now."""
        if self._busy:  # the timer fired inside a sample or aside
            return
        with self.aside():
            start = time.perf_counter()
            reference()
            self.samples.append(time.perf_counter() - start)

    @contextlib.contextmanager
    def aside(self):
        self._busy = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self.aside_s += time.perf_counter() - start
            self._busy = False

    def time(self, fn, bracket: bool = True):
        """(fn(), raw seconds, factor).

        Without bracket samples a section that no timer sample fell in
        gets factor nan.
        """
        if bracket:
            self.probe()
        first = max(len(self.samples) - bracket, 0)
        aside = self.aside_s
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start - (self.aside_s - aside)
        if bracket:
            self.probe()
        inverse = [1.0 / r for r in self.samples[first:]]
        factor = REF_S * statistics.fmean(inverse) if inverse else math.nan
        return result, raw, factor


# ---------------------------------------------------------------------------
# set-up probes


def probe_main(args) -> int:
    """Fresh-interpreter set-up: import, build inputs, print the clock.

    Prints the monotonic clock at the end, the seconds spent sampling the
    host and the host factor over the set-up, for measure_setup.
    """
    def setup():
        import_package()
        import workloads
        workloads.build(args.workload, args.seed, args.scale,
                        Path(args.probe_dir))

    with HostClock() as host:
        _, _, factor = host.time(setup)
    print(json.dumps({"end": time.monotonic(), "aside_s": host.aside_s,
                      "factor": factor}))
    return 0


def measure_setup(args, run_dir: Path) -> list[float]:
    """Set-up seconds at the reference speed of SETUP_PROBES fresh
    interpreters, each sampling the host speed itself."""
    times = []
    for k in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-dir",
               str(run_dir / f"probe-{k}"), "--workload", args.workload,
               "--seed", str(args.seed), "--scale", repr(args.scale)]
        start = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, check=True)
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        times.append((probe["end"] - start - probe["aside_s"])
                     * probe["factor"])
    return times


# ---------------------------------------------------------------------------
# chain clock: run_chain wall time, steps and diagnostics, per call


class ChainCall(NamedTuple):
    d: int
    canonical: bool
    engine: str
    steps: int
    seconds: float  # raw
    factor: float  # to seconds at the reference speed
    ess: float
    retained: int
    birth_proposed: int
    birth_accepted: int
    death_proposed: int
    death_accepted: int


class ChainClock:
    """Times every run_chain call made through harness or sampler.

    Keeps one ChainCall per call, not the chain's trace; the workload's
    chain steps per second and effective samples per second come from
    these records.  Each call gets the host factor of the samples taken
    during it; with probe set, it is also bracketed by two samples.  A
    call with no sample has factor nan until the caller fills in the
    task's.  The batch-means ESS is computed aside.
    """

    NAMESPACES = ("harness", "sampler")

    def __init__(self, host: HostClock, probe: bool):
        self.host = host
        self.probe = probe
        self.calls: list[ChainCall] = []
        self._saved = []

    def __enter__(self):
        for name in self.NAMESPACES:
            mod = importlib.import_module(f"facetproc.{name}")
            inner = mod.run_chain
            self._saved.append((mod, inner))
            mod.run_chain = self._timed(inner)
        return self

    def __exit__(self, *exc):
        for mod, inner in reversed(self._saved):
            mod.run_chain = inner
        self._saved.clear()
        return False

    def _timed(self, inner):
        def run_chain(p, cfg):
            out, secs, factor = self.host.time(lambda: inner(p, cfg),
                                               self.probe)
            diag = out[1]
            with self.host.aside():
                ess = batch_means_ess(diag.trace_n)
            self.calls.append(ChainCall(
                p.d, p.orientation.is_canonical, diag.engine, cfg.n_steps,
                secs, factor, ess, diag.n_retained,
                diag.birth_proposed, diag.birth_accepted,
                diag.death_proposed, diag.death_accepted))
            return out
        return run_chain


def batch_means_ess(series) -> float:
    """Effective sample size var(x) / SE^2(mean), batch size floor(sqrt m)
    (Flegal and Jones 2010)."""
    import numpy as np
    x = np.asarray(series, dtype=float)
    m = len(x)
    size = math.isqrt(m)
    count = m // size if size else 0
    if count < 2:
        return 0.0
    means = x[:count * size].reshape(count, size).mean(axis=1)
    long_run = size * float(means.var(ddof=1))
    var = float(x.var(ddof=1))
    if long_run == 0.0:
        return float(m) if var == 0.0 else 0.0
    return m * var / long_run


# ---------------------------------------------------------------------------
# one pass over the workload's tasks


def compare(expected, actual, where="") -> list[str]:
    """Differences between recorded and new values; floats to 1e-12."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{where}: keys {sorted(actual)} != {sorted(expected)}"]
        return [f for k in expected
                for f in compare(expected[k], actual[k], f"{where}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(actual)} != {len(expected)}"]
        return [f for i, (e, a) in enumerate(zip(expected, actual))
                for f in compare(e, a, f"{where}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        if expected == actual or abs(expected - actual) <= FLOAT_RTOL * max(
                abs(expected), abs(actual)):
            return []
        return [f"{where}: {actual!r} != recorded {expected!r}"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{where}: {actual!r} != recorded {expected!r}"]
    return []


def run_pass(tasks: list, out: Path, tracer=None) -> dict:
    """Run the tasks once, timed; a task that raises is recorded.

    Times are in seconds at the reference speed (HostClock).  Chain calls
    get their own host factor, the rest of a task its task's.  With a
    tracer, only the task calls are traced, not the building of the
    inputs or the checks (which call the series for their oracles), and
    the host is sampled only between tasks, so no sample lands inside a
    span.
    """
    values, files, walls, raw_walls, raised = {}, [], {}, {}, {}
    with contextlib.ExitStack() as stack:
        host = stack.enter_context(HostClock(sampling=tracer is None))
        if tracer is not None:
            stack.enter_context(tracer)
        clock = stack.enter_context(ChainClock(host, tracer is None))
        for task in tasks:
            def call(task=task):
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        return task.run(), None
                except Exception as exc:  # a task that raises has failed
                    return None, exc

            first = len(clock.calls)
            (done, exc), raw, factor = host.time(call)
            if exc is None:
                values[task.name], written = done
                files += written
            else:
                raised[task.name] = f"raised {exc!r}"
            calls = [c._replace(factor=factor) if math.isnan(c.factor)
                     else c for c in clock.calls[first:]]
            clock.calls[first:] = calls
            chain_raw = math.fsum(c.seconds for c in calls)
            raw_walls[task.name] = raw
            walls[task.name] = (math.fsum(c.seconds * c.factor for c in calls)
                                + (raw - chain_raw) * factor)
    (out / "values.json").write_text(json.dumps(values, sort_keys=True,
                                                indent=1) + "\n")
    files.append(str(out / "values.json"))

    def total(kind, what):
        return sum(what(t) for t in tasks if t.kind == kind)

    return {
        "wall": math.fsum(walls.values()),
        "walls": walls,
        "raw_wall": math.fsum(raw_walls.values()),
        "raw_walls": raw_walls,
        "chain_steps": total("chain", lambda t: t.draws),
        "mc_draws": total("mc", lambda t: t.draws),
        "kinds": {t.name: t.kind for t in tasks},
        "chains": clock.calls,
        "values": values,
        "files": files,
        "raised": raised,
    }


def check_pass(tasks: list, result: dict, golden: dict,
               oracles: bool) -> dict:
    """Failures per task: raised, failed its oracle, or left the record.

    The statistical oracles run only when oracles is set: they hold at
    6 SE, and e1's heavy-tailed covariance products passed that once in
    the first 25 seeds checked on every pass, so checking every pass of
    every run would fail correct code.
    """
    failures = {}
    for task in tasks:
        if task.name in result["raised"]:
            failures[task.name] = [result["raised"][task.name]]
            continue
        values = result["values"][task.name]
        try:
            fails = task.check(values) if oracles else []
            if task.golden is not None:
                fails += compare(golden[task.name], task.golden(values),
                                 task.name)
        except Exception as exc:  # malformed output fails its check
            fails = [f"check raised {exc!r}"]
        failures[task.name] = fails
    return failures


def draws_per_s(p: dict) -> float:
    """Draws per second of one pass.

    Chain workloads: chain steps per second of run_chain time.  Otherwise
    Monte Carlo integrand evaluations per second of the Monte Carlo tasks.
    """
    if p["chain_steps"]:
        secs = math.fsum(c.seconds * c.factor for c in p["chains"])
        return p["chain_steps"] / (secs or math.inf)  # every chain raised
    secs = math.fsum(p["walls"][t] for t, kind in p["kinds"].items()
                     if kind == "mc")
    return p["mc_draws"] / (secs or math.inf)


def ess_per_draw(passes: list[dict]) -> float:
    """Mean over passes of the summed batch-means ESS of the facet count
    per chain step; 1 for independent Monte Carlo draws.

    A mean, not a median: the ESS of one pass's chains varies by about 8%
    between input sets, and the mean of a few settles faster.
    """
    if not passes[0]["chain_steps"]:
        return 1.0
    return statistics.fmean(math.fsum(c.ess for c in p["chains"])
                            / p["chain_steps"] for p in passes)


# ---------------------------------------------------------------------------
# per-layer metrics of the traced pass


def layer_metrics(tracer, traced: dict, untraced_wall: float) -> dict:
    """Per-layer metrics of the traced pass.  Span seconds are scaled to
    the reference speed by the pass's overall host factor."""
    summary = tracer.summary()
    factor = traced["wall"] / traced["raw_wall"]

    def span(name, key):
        value = summary.get(name, {}).get(key, 0)
        return value if key == "calls" else value * factor

    chains = traced["chains"]
    steps = sum(c.steps for c in chains)

    def steps_per_s(engine, pick):
        sel = [c for c in chains if c.engine == engine and pick(c)]
        secs = math.fsum(c.seconds * c.factor for c in sel)
        return sum(c.steps for c in sel) / secs if secs else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    def total(field):
        return sum(getattr(c, field) for c in chains)

    rebuilds = (span("ustat.FacetPattern.with_facet", "calls")
                + span("ustat.FacetPattern.without_index", "calls"))
    m = {
        "sampler.run_chain.self_s": (span("sampler.run_chain", "self_s"),
                                     "s"),
        "sampler.steps_per_s.counts_d2": (
            steps_per_s("counts", lambda c: c.d == 2), "steps/s"),
        "sampler.steps_per_s.counts_d3": (
            steps_per_s("counts", lambda c: c.d == 3), "steps/s"),
        "sampler.steps_per_s.pattern_canonical": (
            steps_per_s("pattern", lambda c: c.canonical), "steps/s"),
        "sampler.steps_per_s.pattern_hemisphere": (
            steps_per_s("pattern", lambda c: not c.canonical), "steps/s"),
        "sampler.retained_per_step": (ratio(total("retained"), steps),
                                      "ratio"),
        "sampler.birth_accept_ratio": (
            ratio(total("birth_accepted"), total("birth_proposed")), "ratio"),
        "sampler.death_accept_ratio": (
            ratio(total("death_accepted"), total("death_proposed")), "ratio"),
        "sampler.sample_poisson.calls": (
            span("sampler.sample_poisson", "calls"), "count"),
        "sampler.sample_poisson.s": (span("sampler.sample_poisson", "s"),
                                     "s"),
        "model.log_conditional_intensity.calls": (
            span("model.log_conditional_intensity", "calls"), "count"),
        "model.log_conditional_intensity.self_s": (
            span("model.log_conditional_intensity", "self_s"), "s"),
        "ustat.g_increment.calls": (span("ustat.g_increment", "calls"),
                                    "count"),
        "ustat.g_increment.s": (span("ustat.g_increment", "s"), "s"),
        "ustat.g_vector.calls": (span("ustat.g_vector", "calls"), "count"),
        "ustat.g_vector.s": (span("ustat.g_vector", "s"), "s"),
        "ustat.pattern_rebuilds_per_step": (ratio(rebuilds, steps),
                                            "1/step"),
        "geometry.intersection_measure.calls": (
            span("geometry.intersection_measure", "calls"), "count"),
        "geometry.intersection_measure.s": (
            span("geometry.intersection_measure", "s"), "s"),
        "correlation.rho_series_counts.calls": (
            span("correlation.rho_series_counts", "calls"), "count"),
        "correlation.rho_series_counts.s": (
            span("correlation.rho_series_counts", "s"), "s"),
        "correlation.rho_bounds.calls": (
            span("correlation.rho_bounds", "calls"), "count"),
        "correlation.rho_bounds.s": (span("correlation.rho_bounds", "s"),
                                     "s"),
        "correlation.series_cells": (tracer.series_cells, "count"),
        "moments.mixed_moment.s": (span("moments.mixed_moment", "s"), "s"),
        "moments.centered_moment_leading.s": (
            span("moments.centered_moment_leading", "s"), "s"),
        "moments.expected_increment.s": (
            span("moments.expected_increment", "s"), "s"),
        "moments.asymptotic_covariance.s": (
            span("moments.asymptotic_covariance", "s"), "s"),
        "moments.samples": (traced["mc_draws"], "count"),
        "harness.run_experiment.calls": (
            span("harness.run_experiment", "calls"), "count"),
        "harness.run_experiment.self_s": (
            span("harness.run_experiment", "self_s"), "s"),
        "harness.results_bytes": (
            sum(Path(f).stat().st_size for f in traced["files"]
                if Path(f).name.startswith("results.")), "B"),
        "cli.main.calls": (span("cli.main", "calls"), "count"),
        "cli.main.self_s": (span("cli.main", "self_s"), "s"),
        "trace.overhead_ratio": (traced["wall"] / untraced_wall - 1.0,
                                 "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def same_outputs(first: dict, rerun: dict) -> list[str]:
    """How a rerun's result files differ from the first pass's."""
    def names(p):
        return [Path(f).relative_to(Path(p["files"][-1]).parent)
                for f in p["files"]]

    if names(first) != names(rerun):
        return [f"rerun wrote {names(rerun)}, first pass {names(first)}"]
    return [f"{n} differs from the first pass"
            for n, fa, fb in zip(names(first), first["files"], rerun["files"])
            if Path(fa).read_bytes() != Path(fb).read_bytes()]


# ---------------------------------------------------------------------------


def machine_facts() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def load_golden(workload: str):
    data = json.loads(GOLDEN.read_text())
    return data["tasks"][workload], data["pinned"][workload]


def record_golden() -> int:
    """Write golden.json from the current code (run on the seed code)."""
    import workloads
    data = {"tasks": {}, "pinned": {}}
    for workload in workloads.BUILDERS:
        out = WORK / "golden" / workload
        shutil.rmtree(out, ignore_errors=True)
        tasks = workloads.build(workload, 0, 0.01, out)
        picked = {}
        for task in tasks:
            if task.golden is not None:
                with contextlib.redirect_stdout(io.StringIO()):
                    values, _ = task.run()
                picked[task.name] = task.golden(values)
        data["tasks"][workload] = picked
        data["pinned"][workload] = workloads.pinned_values(workload)
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(
        "chain-counts", "chain-pattern", "reference-moments"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=SCALE,
                        help="step and sample counts relative to the "
                             "reference sizing (smoke tests use less)")
    parser.add_argument("--probe-dir", help=argparse.SUPPRESS)
    parser.add_argument("--record-golden", action="store_true",
                        help="write golden.json from the current code")
    args = parser.parse_args(argv)
    # single-threaded BLAS on a shared 2-core machine: set before numpy
    # loads with the package; the set-up probes inherit it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.probe_dir:
        return probe_main(args)
    import_package()
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        parser.error("--workload is required")
    import workloads

    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    facts = machine_facts()
    (run_dir / "machine.json").write_text(json.dumps(facts, indent=1) + "\n")
    print("machine: " + json.dumps(facts))
    golden_tasks, golden_pinned = load_golden(args.workload)

    setup = measure_setup(args, run_dir)
    # Pass k runs inputs made from the seed and k.  Pass 0 meets every
    # check; the others must not raise and must keep the seed-free
    # values.  The traced pass reruns pass 0's inputs and must reproduce
    # its result files byte for byte.
    outcomes: dict[str, list[str]] = {}

    def run_inputs(label: str, seed: int, tracer=None) -> dict:
        out = run_dir / label
        tasks = workloads.build(args.workload, seed, args.scale, out)
        result = run_pass(tasks, out, tracer)
        checked = check_pass(tasks, result, golden_tasks, not passes)
        for name, fails in checked.items():
            outcomes[f"{label}/{name}"] = fails
        return result

    def pass_seed(k: int) -> int:
        return args.seed if k == 0 else workloads.derive_seed(args.seed,
                                                               "pass", k)

    budget = args.seconds / 2 if args.trace else args.seconds
    passes: list[dict] = []
    began = last = time.perf_counter()
    elapsed = [0.0]  # per pass, with building and checks
    while not passes or time.perf_counter() - began + elapsed[-1] <= budget:
        passes.append(run_inputs(f"pass-{len(passes)}",
                                 pass_seed(len(passes))))
        if len(passes) > 1:
            shutil.rmtree(run_dir / f"pass-{len(passes) - 1}")
        elapsed.append(time.perf_counter() - last)
        last = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        traced = run_inputs("traced", pass_seed(0), tracer)
        outcomes["traced"] = same_outputs(passes[0], traced)
        tracer.write(run_dir / "spans.npz")
        print("traced outputs identical to untraced: "
              + ("no" if outcomes["traced"] else "yes"))
        layers = layer_metrics(tracer, traced, passes[0]["wall"])

    try:
        pinned = json.loads(json.dumps(workloads.pinned_values(args.workload)))
        outcomes["pinned"] = compare(golden_pinned, pinned, "pinned")
    except Exception as exc:  # a run that raises fails the pinned check
        outcomes["pinned"] = [f"pinned runs raised {exc!r}"]
    attempted = len(outcomes)
    failed = sum(bool(f) for f in outcomes.values())

    draw_rate = statistics.median(draws_per_s(p) for p in passes)
    e2e = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
        "draws_per_s": (draw_rate, "draws/s"),
        "ess_per_s": (draw_rate * ess_per_draw(passes), "samples/s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(passes)} untraced passes, scale {args.scale}")
    for name, (value, unit) in e2e.items():
        print(f"  {name:13s} {value:.6g} {unit}")
    print("  seconds per pass, with building and checks: "
          + " ".join(f"{e:.3f}" for e in elapsed[1:]))
    print("  seconds per pass at the reference speed (raw):")
    for name in passes[0]["walls"]:
        print(f"  task {name:17s} " + " ".join(
            f"{p['walls'][name]:.3f} ({p['raw_walls'][name]:.3f})"
            for p in passes))
    print(f"  error_rate    {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} checked tasks)")
    for label, fails in outcomes.items():
        for f in fails[:5]:
            print(f"  FAIL {label}: {f}")
    metrics = layers if args.trace else {
        k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
