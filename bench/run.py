"""Benchmark of dendrosim: end-to-end and per-layer metrics on three workloads.

Run from the repository root, which must hold the package under src/:

    python3 bench/run.py --workload desk-noisy --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics named in BENCHMARK.json; --trace 1
runs the workload untraced and then under the span tracer (spans.py) and
prints the per-layer metrics.  The timed end-to-end metric, wall_rel, is an
operation's wall time over that of a fixed numpy reference kernel run just
before it (see reference_seconds), so that it follows the program rather
than the host's drifting speed; wall_s and cell_updates_per_s in seconds are
printed beside it.  Every operation's outputs are checked, and the
last line on stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 1 when a check fails and 2 when the
package cannot be imported from this checkout's src/.

The workloads are closed loops in one process: each operation starts when
the previous one has finished.  The package is driven only through its public
calls: dendrosim.run, dendrosim.cli.main, initialize, measure (via run),
params_from_dict and the io writers.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(SRC))
IMPORT_ERROR = None
try:
    import numpy as np
    import scipy
    import dendrosim
    import dendrosim.cli
except ImportError as exc:  # reported by main(); tests need the package anyway
    dendrosim = None
    IMPORT_ERROR = exc

from spans import Tracer, within  # noqa: E402  (lives beside this file)

# An operation fails when phi leaves [0, 1] by more than this.  On these
# workloads phi stays inside [0, 1]; the margin tolerates rounding and noise.
PHI_MARGIN = 1e-2
# Relative drift of sum(T - K phi) dx^2 allowed on a noise-free run, the
# tolerance of acceptance criterion 01.
DRIFT_TOL = 1e-10
SETUP_REPEATS = 3
LATENT_HEATS = ("0.8", "1.2", "1.6", "2.0")
SWEEP_JOBS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # grid is n x n
    steps: int  # steps per simulation
    runs: int = 1  # simulations per operation
    snapshot_every: int = 0  # used by sample-dense only
    threads: int = 1  # simulations the workload runs at once

    @property
    def cell_updates(self) -> int:
        return self.n * self.n * self.steps * self.runs


# Operations are kept short (well under two seconds) so that the reference
# kernel timed just before each one sees the same host speed (see
# reference_seconds).
# desk-noisy: 300^2 arrays (720 KB each, ~28 live per step) overflow the L2,
#   so stepping is memory-bound; samples and snapshots only at both ends.
# sample-dense: 128^2 fits in cache; a diagnostics sample every step costs
#   about as much as the step, and snapshots every 10 steps exercise io.
# sweep-k: four 200^2 hexagonal runs per operation on two sweep jobs, the
#   package's only run-level parallelism.
WORKLOADS = {
    "desk-noisy": Workload("desk-noisy", n=300, steps=25),
    "sample-dense": Workload("sample-dense", n=128, steps=100, snapshot_every=10),
    "sweep-k": Workload("sweep-k", n=200, steps=50, runs=len(LATENT_HEATS),
                        threads=SWEEP_JOBS),
}


class Meter:
    """Wall seconds and minor page faults (fresh pages touched, mostly by
    array allocation) of a with block, all threads of this process counted."""

    def __enter__(self):
        self.faults = -resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.seconds = time.perf_counter() - self.t0
        self.faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@dataclass
class OpResult:
    meter: Meter
    problems: list = field(default_factory=list)
    digest: str = ""  # SHA-256 of the final fields, when the op has one state
    bytes_written: int = 0
    reference_seconds: float = 0.0  # the reference kernel timed just before

    @property
    def relative(self) -> float:
        """Wall time in units of the reference kernel's wall time."""
        return self.meter.seconds / self.reference_seconds


def config(w: Workload, seed: int) -> dict:
    """Config keys of one simulation of the workload (first sweep value)."""
    base = {"nx": w.n, "ny": w.n, "total_steps": w.steps, "rng_seed": seed}
    if w.name == "desk-noisy":
        return {**base, "noise_amp": 0.01, "snapshot_every": w.steps,
                "diagnostics_every": w.steps}
    if w.name == "sample-dense":
        return {**base, "snapshot_every": w.snapshot_every, "diagnostics_every": 1}
    return {**base, "j_mode": 6, "dt": 2e-4, "latent_heat": float(LATENT_HEATS[0])}


def field_digest(phi, temp) -> str:
    h = hashlib.sha256()
    for a in (phi, temp):
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def field_problems(phi, temp) -> list:
    if not (np.isfinite(phi).all() and np.isfinite(temp).all()):
        return ["non-finite final field"]
    lo, hi = float(phi.min()), float(phi.max())
    if lo < -PHI_MARGIN or hi > 1.0 + PHI_MARGIN:
        return [f"phi range [{lo!r}, {hi!r}] overshoots [0, 1] by more than {PHI_MARGIN}"]
    return []


def snapshot_problems(outdir: Path, step: int) -> list:
    phi, _ = dendrosim.read_snapshot(outdir / f"phi_{step:06d}.pfds")
    temp, _ = dendrosim.read_snapshot(outdir / f"temp_{step:06d}.pfds")
    return field_problems(phi.data, temp.data)


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def cli_main(argv) -> tuple[int, Meter]:
    """dendrosim.cli.main with its stdout kept off ours."""
    with contextlib.redirect_stdout(StringIO()), Meter() as meter:
        code = dendrosim.cli.main(argv)
    return code, meter


def set_args(cfg: dict) -> list:
    return [arg for key, value in cfg.items() for arg in ("--set", f"{key}={value}")]


def op_desk_noisy(w: Workload, seed: int, out: Path) -> OpResult:
    params = dendrosim.params_from_dict(config(w, seed))

    def save(state):
        for name, f in (("phi", state.phi), ("temp", state.temp)):
            dendrosim.write_snapshot(f, out / f"{name}_{state.step:06d}.pfds",
                                     name=name, step=state.step, dt=params.dt)

    try:
        with Meter() as meter:
            state, _ = dendrosim.run(params, on_snapshot=save)
    except dendrosim.BlowupError as exc:
        return OpResult(meter, [f"blow-up: {exc}"])
    phi, temp = state.phi.data, state.temp.data
    return OpResult(meter, field_problems(phi, temp), field_digest(phi, temp), tree_bytes(out))


def op_sample_dense(w: Workload, seed: int, out: Path) -> OpResult:
    code, meter = cli_main(["run", *set_args(config(w, seed)), "--out", str(out)])
    if code != 0:
        return OpResult(meter, [f"run exit code {code}"])
    problems = snapshot_problems(out, w.steps)
    snapshots = len(list(out.glob("*.pfds")))
    if snapshots != 2 * (w.steps // w.snapshot_every + 1):
        problems.append(f"{snapshots} snapshot files written")
    with open(out / "diagnostics.csv", newline="", encoding="ascii") as fh:
        sums = [float(row["conservation_sum"]) for row in csv.DictReader(fh)]
    if len(sums) != w.steps + 1:
        problems.append(f"{len(sums)} diagnostics rows for {w.steps} steps")
    drift = max(abs(s - sums[0]) for s in sums) / abs(sums[0])
    if not drift <= DRIFT_TOL:
        problems.append(f"enthalpy drift {drift!r} exceeds {DRIFT_TOL}")
    return OpResult(meter, problems, bytes_written=tree_bytes(out))


def op_sweep_k(w: Workload, seed: int, out: Path, jobs: int = SWEEP_JOBS) -> OpResult:
    base = {k: v for k, v in config(w, seed).items() if k != "latent_heat"}
    argv = ["sweep", "--param", "latent_heat", "--values", ",".join(LATENT_HEATS),
            "--jobs", str(jobs), *set_args(base), "--out", str(out)]
    code, meter = cli_main(argv)
    if code != 0:
        return OpResult(meter, [f"sweep exit code {code}"])
    with open(out / "sweep_summary.csv", newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    problems = [f"latent_heat={r['value']} status {r['status']}" for r in rows if r["status"] != "ok"]
    if [r["value"] for r in rows] != list(LATENT_HEATS):
        problems.append(f"summary rows {[r['value'] for r in rows]}")
    fractions = [float(r["solid_fraction"]) for r in rows]
    if not all(a > b for a, b in zip(fractions, fractions[1:])):
        problems.append(f"solid_fraction {fractions} not strictly decreasing in latent_heat")
    for k in LATENT_HEATS:
        problems += snapshot_problems(out / f"latent_heat={k}", w.steps)
    return OpResult(meter, problems, bytes_written=tree_bytes(out))


OPS = {"desk-noisy": op_desk_noisy, "sample-dense": op_sample_dense, "sweep-k": op_sweep_k}


def fingerprint_problems(spec_path: Path = BENCH / "fingerprint.json") -> list:
    """Run the recorded fixed noisy config and compare its field SHA-256."""
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    state, _ = dendrosim.run(dendrosim.params_from_dict(spec["config"]))
    got = field_digest(state.phi.data, state.temp.data)
    if got != spec["sha256"]:
        return [f"fingerprint {got} differs from the recorded {spec['sha256']}"]
    return []


SETTLE_BYTES = 8 << 20
# Passes of the reference kernel's numpy part on a 300 x 300 grid (about
# 30 ms on a 2-vCPU Intel Xeon; smaller grids get proportionally more), and
# iterations of its pure-Python part (about as long).
REFERENCE_PASSES_300 = 20
REFERENCE_LOOP = 500_000


def _reference_pass(a):
    b = np.roll(a, 1, axis=0)
    c = np.roll(a, -1, axis=1)
    d = a * b + c
    return np.exp(-np.arctan2(d, b)) * a - d


def reference_seconds(w: Workload) -> float:
    """Wall time of a fixed kernel: numpy passes on the workload's grid, on as
    many threads as the workload runs simulations at once, then a pure-Python
    loop.

    The host's speed drifts by up to 2x over minutes (neighbours' load, CPU
    clock), and an operation's wall time follows it.  The kernel uses no
    dendrosim code, so the ratio of the two (OpResult.relative) follows the
    program and much less the host.  Array work and interpreter work do not
    slow down alike, and the program does both, so the kernel does both.
    """
    a = np.linspace(0.5, 1.5, w.n * w.n).reshape(w.n, w.n)
    passes = max(1, round(REFERENCE_PASSES_300 * (300 / w.n) ** 2))

    def kernel():
        for _ in range(passes):
            _reference_pass(a)

    threads = [threading.Thread(target=kernel) for _ in range(w.threads - 1)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    kernel()
    for t in threads:
        t.join()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i
    return time.perf_counter() - t0


def settle_allocator() -> None:
    """Allocate and free one block larger than any array a workload uses.

    glibc's malloc raises its mmap and heap-trim thresholds the first time
    it frees an mmap-ed block above the current threshold.  Until then, the
    freed grid arrays are handed back to the kernel and faulted in again
    (about 31k minor faults per sample-dense operation, a tenth of its time,
    and more in the reference kernel); when the switch comes depends on the
    history of the process, so runs landed on either side of it.  Making it
    happen first puts every run in the settled state.
    """
    np.empty(SETTLE_BYTES // 8)


def timed_ops(w: Workload, seed: int, seconds: float, scratch: Path, **kwargs) -> list:
    """Closed loop of operations until `seconds` have passed (at least one),
    each right after a run of the reference kernel."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        out = scratch / f"op{len(results)}"
        out.mkdir()
        reference = reference_seconds(w)
        result = OPS[w.name](w, seed, out, **kwargs)
        result.reference_seconds = reference
        results.append(result)
        shutil.rmtree(out)
    return results


SETUP_CHILD = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import dendrosim\n"
    "dendrosim.initialize(dendrosim.params_from_dict(json.loads(sys.argv[2])))\n"
)


def setup_seconds(w: Workload, seed: int, repeats: int) -> tuple[list, list]:
    """Wall times of fresh interpreters that import, resolve params and
    initialize, and the problems of each."""
    times, checks = [], []
    args = [sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps(config(w, seed))]
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        checks.append([] if proc.returncode == 0 else
                      [f"set-up exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"])
    return times, checks


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def cache_sizes() -> dict:
    """Per-core cache sizes by level, as the kernel reports them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def live_arrays(w: Workload, seed: int) -> float:
    """Peak bytes one step allocates, in units of one grid array."""
    params = dendrosim.params_from_dict(config(w, seed))
    state = dendrosim.initialize(params)
    rng = dendrosim.RngStream(params.rng_seed)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        dendrosim.step(state, params, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / (8 * w.n * w.n)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
    }


def _rolls(a, di=0, dj=0):
    """np.roll copies and bytes one `shifted` call makes, from its arguments."""
    copies = (di != 0) + (dj != 0)
    return copies, copies * a.nbytes


# (namespace the call is looked up in, attribute, span name, extra).  Each
# function is wrapped where its caller finds it, so calls between modules
# are seen without editing the package.
TRACE_POINTS = (
    ("dendrosim", "run", "solver.run", None),
    ("dendrosim", "params_from_dict", "io.params_from_dict", None),
    ("dendrosim", "write_snapshot", "io.write_snapshot", None),
    ("dendrosim.cli", "main", "cli.main", None),
    ("dendrosim.cli", "run", "solver.run", None),
    ("dendrosim.cli", "params_from_dict", "io.params_from_dict", None),
    *(("dendrosim.cli", f, f"io.{f}", None)
      for f in ("write_snapshot", "write_diagnostics_csv", "write_pgm", "write_manifest")),
    ("dendrosim.solver", "initialize", "solver.initialize", None),
    ("dendrosim.solver", "step", "solver.step", None),
    ("dendrosim.solver", "gradient_arrays", "lattice.gradient_arrays", None),
    ("dendrosim.solver", "laplacian9_arrays", "lattice.laplacian9_arrays", None),
    ("dendrosim.solver", "shifted", "lattice.shifted", _rolls),
    ("dendrosim.lattice", "shifted", "lattice.shifted", _rolls),
    *(("dendrosim.solver", f, f"physics.{f}", None)
      for f in ("interface_angle", "epsilon_of_theta", "m_of_temperature",
                "reaction_term", "noise_term")),
    ("dendrosim.physics.RngStream", "uniform_sym", "physics.rng", None),
    *(("dendrosim.diagnostics", f, f"diagnostics.{f}", None)
      for f in ("measure", "free_energy", "arm_count", "conservation_sum")),
    ("dendrosim.diagnostics", "lattice_sum", "lattice.lattice_sum", None),
    ("dendrosim.diagnostics", "gradient_arrays", "lattice.gradient_arrays", None),
    *(("dendrosim.diagnostics", f, f"physics.{f}", None)
      for f in ("double_well", "interface_angle", "epsilon_of_theta", "m_of_temperature")),
)

LAYERS = ("solver", "lattice", "physics", "diagnostics", "io", "cli")
STEP_CHILDREN_MS = (
    "lattice.gradient_arrays", "lattice.laplacian9_arrays",
    "physics.interface_angle", "physics.epsilon_of_theta", "physics.m_of_temperature",
    "physics.reaction_term", "physics.noise_term", "physics.rng",
)
P50_MS = (
    "diagnostics.measure", "diagnostics.free_energy", "diagnostics.arm_count",
    "diagnostics.conservation_sum", "lattice.lattice_sum", "io.write_snapshot",
    "io.write_diagnostics_csv", "io.write_pgm", "io.write_manifest",
)


def _ms(values) -> list:
    return [1e3 * v for v in values]


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values) -> float:
    if len(values) < 2:
        return _p50(values)
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def layer_metrics(spans, traced_seconds: float, ops: int) -> dict:
    """Per-layer metrics, as (value, unit), from the spans of `ops` traced
    operations that took `traced_seconds` in all."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    steps = by_name.get("solver.step", [])
    n_steps = len(steps)

    def per_step(total):
        return total / n_steps if n_steps else 0.0

    in_step = {}
    for s in within(spans, "solver.step"):
        in_step.setdefault(s.name, []).append(s)
    shifted = in_step.get("lattice.shifted", [])
    rolls = [s.extra for s in shifted if s.extra is not None]
    samples = len(by_name.get("diagnostics.measure", []))

    m = {
        "solver.step.ms_p50": (_p50(_ms(s.seconds for s in steps)), "ms"),
        "solver.step.ms_p90": (_p90(_ms(s.seconds for s in steps)), "ms"),
        "solver.step.self_ms": (1e3 * per_step(sum(s.self_seconds for s in steps)), "ms/step"),
        "lattice.shifted.calls_per_step": (per_step(len(shifted)), "count/step"),
        "lattice.roll_copies_per_step": (per_step(sum(r[0] for r in rolls)), "count.computed"),
        "lattice.roll_bytes_per_step": (per_step(sum(r[1] for r in rolls)), "B.computed"),
        "physics.double_well.ms_per_sample": (
            1e3 * sum(s.seconds for s in by_name.get("physics.double_well", []))
            / samples if samples else 0.0, "ms/sample"),
    }
    for name in STEP_CHILDREN_MS:
        total = sum(s.seconds for s in in_step.get(name, []))
        m[f"{name}.ms_per_step"] = (1e3 * per_step(total), "ms/step")
    for name in P50_MS:
        m[f"{name}.ms_p50"] = (_p50(_ms(s.seconds for s in by_name.get(name, []))), "ms")
    # On sweep-k the jobs' spans overlap in time and cli.main's self time is
    # its wait for them, so the coverage there exceeds 1.
    self_total = 0.0
    for layer in LAYERS:
        layer_self = sum(s.self_seconds for s in spans if s.name.startswith(layer + "."))
        self_total += layer_self
        m[f"trace.self_ms_per_op.{layer}"] = (1e3 * layer_self / ops, "ms")
    m["trace.self_time_coverage"] = (self_total / traced_seconds, "ratio")
    return m


def run_untraced(w: Workload, seed: int, seconds: float, scratch: Path):
    """End-to-end metrics and the operations behind them."""
    ops = timed_ops(w, seed, seconds, scratch)
    rss = peak_rss_mb()  # read before the set-up interpreters become children
    setup, setup_checks = setup_seconds(w, seed, SETUP_REPEATS)
    times = [op.meter.seconds for op in ops]
    wall = statistics.median(times)
    metrics = {
        "wall_rel": (statistics.median(op.relative for op in ops), "ratio"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = [f"{len(ops)} operations, {len(setup)} set-ups",
             f"wall_s = {wall!r} s (median; p90 {_p90(times)!r}, max {max(times)!r})",
             f"cell_updates_per_s = {w.cell_updates / wall!r} 1/s",
             f"reference_s = {statistics.median(op.reference_seconds for op in ops)!r} s"]
    return metrics, ops, setup_checks, notes


def run_traced(w: Workload, seed: int, seconds: float, scratch: Path):
    """Per-layer metrics: half the time untraced, half traced."""
    plain = timed_ops(w, seed, seconds / 2, scratch)
    with Tracer(TRACE_POINTS) as tracer:
        traced = timed_ops(w, seed, seconds / 2, scratch)
    plain_rel = statistics.median(op.relative for op in plain)
    traced_rel = statistics.median(op.relative for op in traced)
    metrics = layer_metrics(tracer.spans, sum(op.meter.seconds for op in traced), len(traced))
    metrics["trace.overhead_ratio"] = (traced_rel / plain_rel, "ratio")
    metrics["host.reference_ms"] = (
        1e3 * statistics.median(op.reference_seconds for op in plain + traced), "ms")
    metrics["process.minor_faults_per_op"] = (
        statistics.median_low(op.meter.faults for op in plain), "count")
    metrics["io.bytes_written"] = (statistics.median_low(op.bytes_written for op in traced), "B")
    ops = plain + traced
    speedup = 0.0  # not measured outside sweep-k
    if w.name == "sweep-k":
        serial = timed_ops(w, seed, 0, scratch, jobs=1)
        ops += serial
        speedup = serial[0].relative / plain_rel
    metrics["cli.sweep.speedup"] = (speedup, "ratio")
    metrics["cli.sweep.parallel_efficiency"] = (speedup / SWEEP_JOBS, "ratio")
    notes = [f"{len(plain)} untraced and {len(traced)} traced operations, {len(tracer.spans)} spans"]
    return metrics, ops, [], notes


def run_benchmark(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one benchmark and return its result object (see the module docstring)
    plus the environment, notes and problems to print before it."""
    env = {**environment(), "workload": w.name, "grid": f"{w.n}x{w.n}",
           "bytes_per_array": 8 * w.n * w.n, "live_arrays_per_step": live_arrays(w, seed)}
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT))
    settle_allocator()
    try:
        checks = [fingerprint_problems()]
        runner = run_traced if trace else run_untraced
        metrics, ops, extra_checks, notes = runner(w, seed, seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if trace:
        metrics["solver.step.live_arrays"] = (env["live_arrays_per_step"], "count")
    checks += extra_checks
    digests = {op.digest for op in ops if op.digest}
    for op in ops:
        problems = list(op.problems)
        if len(digests) > 1 and op.digest:
            problems.append("final fields differ between repeats of one input")
        checks.append(problems)
    failed = sum(1 for problems in checks if problems)
    return {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "problems": sorted({p for problems in checks for p in problems}),
        "env": env,
        "notes": notes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed (rng_seed), >= 0")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if dendrosim is None or not Path(dendrosim.__file__).resolve().is_relative_to(SRC):
        where = IMPORT_ERROR if dendrosim is None else dendrosim.__file__
        print(f"error: dendrosim must be importable from {SRC} ({where})", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    result = run_benchmark(w, args.seed, args.seconds, bool(args.trace))
    print(f"{w.name} env {json.dumps(result.pop('env'))}")
    for name, m in result["metrics"].items():
        print(f"{w.name} {name} = {m['value']!r} {m['unit']}")
    print(f"{w.name} failed_ratio = {result['failed'] / result['attempted']!r} "
          f"({result['failed']}/{result['attempted']} operations failed)")
    for line in result.pop("notes") + result.pop("problems"):
        print(f"{w.name} {line}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
