"""Workloads, timed passes and metrics of the ordnet benchmark.

A run simulates its inputs from the seed (set-up), then repeats a *pass* of
CLI commands through ``ordnet.cli.main`` until the measuring time is used up.
Every command waits for the previous one: a closed loop with one client.
After each pass the outputs are checked.  A traced run adds one more pass with
the tracer installed and reports per-layer numbers instead of end-to-end ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from ordnet import FitControls, Hyperparameters, cli, fit
from ordnet.core import sample_covariance
from ordnet.engine import cm_update_precision, compute_elbo

from checks import Ledger, check_outputs, edge_quality, read_document, summarise_quality
from speed import Timed, lapack_unit
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3
LAPACK = lapack_unit()
PROBE_REPEATS = 3
LAYERS = ("cli", "simulate", "core", "engine", "baseline", "selection", "metrics")
FACTOR_UPDATES = tuple(
    f"engine.{name}"
    for name in ("update_edge_latents", "update_zeta", "update_beta", "update_sigma")
)


@dataclass(frozen=True)
class Workload:
    """One benchmark input design and the CLI commands a pass runs on it.

    ``simulate`` and ``fit`` are ``ordnet`` configuration keys; ``select``,
    when set, adds a ``select-nu0`` command with those keys and makes the fit
    take its spikes from the selection report.  A joint fit is also ranked
    (``ordnet rank`` needs the covariate effects only a joint fit has).  Why
    each workload exists is recorded in BENCHMARK.json and README.md.
    """

    name: str
    simulate: dict[str, str]
    fit: dict[str, str]
    select: dict[str, str] | None = None
    cross_check: bool = False

    @property
    def joint(self) -> bool:
        return self.fit.get("method", "joint") == "joint"


WORKLOADS = {
    w.name: w
    for w in (
        # Fixed iteration budgets: run to convergence, the iteration count (and
        # so the wall time) of one joint fit varies too much from seed to seed.
        Workload(
            "joint_p100",
            simulate={},
            fit={"nu0": "0.04", "max_iter": "50", "min_iter": "50"},
            cross_check=True,
        ),
        Workload(
            "select_p50",
            simulate={"p": "50"},
            fit={"method": "ssl"},
            select={},
        ),
        # Not in BENCHMARK.json: one pass takes 25-35 s, too long to repeat
        # within a run, so its spread over seeds stays near the largest bound.
        # Run it by name for the p=200 point of the per-sweep scaling.
        Workload(
            "joint_p200",
            # At the default magnitude 0.2 the simulator refuses 2-3% of seeds
            # at this size (no positive-definite sequence within its budget).
            simulate={"p": "200", "levels": "1,2", "partial_corr_magnitude": "0.15"},
            fit={"nu0": "0.04", "max_iter": "30", "min_iter": "30"},
        ),
        # Only for the benchmark's own tests: every command, in seconds.
        Workload(
            "smoke",
            simulate={
                "p": "12", "n_base_edges": "12", "n_appearing": "4",
                "n_disappearing": "4", "n_per_group": "80",
            },
            fit={"max_iter": "40"},
            select={"nu0_grid": "0.01,0.03,0.1"},
            cross_check=True,
        ),
    )
}


@dataclass
class Pass:
    """Wall time of each command of one pass, and its checked quality.

    ``timed`` holds the time of the whole pass, raw and at the nominal
    machine speed (see speed.py).
    """

    timed: Timed
    seconds: dict[str, float] = field(default_factory=dict)
    quality: list[dict] | None = None

    @property
    def wall_s(self) -> float:
        return self.timed.seconds

    def record(self) -> dict[str, object]:
        return {"commands_raw_s": self.seconds, "raw_s": self.timed.raw_s,
                "speed": self.timed.speed, "seconds": self.timed.seconds}


def _write_config(path: Path, keys: dict[str, str]) -> str:
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")
    return str(path)


def run_command(argv: list[str], ledger: Ledger, tracer: Tracer | None = None) -> float:
    """Run one ``ordnet`` command in-process; return its wall time in seconds.

    The command's own output is captured so that the benchmark's standard
    output stays parseable; it is kept in the ledger when the command fails.
    """
    output = io.StringIO()
    span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output), span:
            code = cli.main(argv)
    except Exception:  # a crash is a failed operation; the run goes on
        code = None
        output.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    ledger.record(f"ordnet {argv[0]}", code == 0, f"exit {code}: {output.getvalue()}")
    return seconds


def setup(workload: Workload, seed: int, work: Path, root: Path, ledger: Ledger,
          tracer: Tracer | None = None) -> float:
    """Import ordnet in a fresh interpreter, then simulate and write the inputs.

    Returns the import time plus the time of ``ordnet simulate``, both at the
    nominal machine speed.  The import is timed in a child process, because
    this process has imported ordnet already, with the plain-Python unit,
    because the LAPACK unit would import numpy before ordnet does.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(root / "src"), str(BENCH_DIR))))
    child = subprocess.run(
        [sys.executable, "-c",
         "import speed\nwith speed.Timed() as timed: import ordnet\nprint(timed.seconds)"],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    ledger.record("import ordnet", child.returncode == 0, child.stderr)
    import_s = float(child.stdout.strip()) if child.returncode == 0 else 0.0
    sim_conf = _write_config(work / "simulate.conf", {**workload.simulate, "seed": str(seed)})
    _write_config(work / "fit.conf", workload.fit)
    if workload.select is not None:
        _write_config(work / "select.conf", workload.select)
    with Timed(LAPACK) as simulate:
        run_command(["simulate", "--config", sim_conf, "--out-dir", str(work / "data")],
                    ledger, tracer)
    return import_s + simulate.seconds


def commands(workload: Workload, work: Path) -> list[list[str]]:
    manifest = str(work / "data" / "manifest.csv")
    fit_json = str(work / "fit.json")
    argvs = []
    fit_argv = ["fit", "--config", str(work / "fit.conf"), "--manifest", manifest,
                "--out", fit_json]
    if workload.select is not None:
        nu0_json = str(work / "nu0.json")
        argvs.append(["select-nu0", "--config", str(work / "select.conf"),
                      "--manifest", manifest, "--out", nu0_json])
        fit_argv += ["--nu0-report", nu0_json]
    argvs.append(fit_argv)
    argvs.append(["evaluate", "--fit", fit_json, "--truth",
                  str(work / "data" / "truth.json"), "--out", str(work / "metrics.csv")])
    if workload.joint:
        argvs.append(["rank", "--fit", fit_json, "--k", "50",
                      "--out-prefix", str(work / "rank")])
    return argvs


def run_pass(workload: Workload, work: Path, ledger: Ledger,
             tracer: Tracer | None = None) -> Pass:
    for name in ("fit.json", "nu0.json", "metrics.csv", "rank_nodes.csv"):
        (work / name).unlink(missing_ok=True)
    result = Pass(Timed(LAPACK))
    with result.timed:
        for argv in commands(workload, work):
            result.seconds[argv[0]] = run_command(argv, ledger, tracer)
    result.quality = check_outputs(work, workload.select is not None, workload.joint, ledger)
    return result


def cross_check(workload: Workload, work: Path, quality: list[dict] | None,
                ledger: Ledger) -> None:
    """Refit through ``ordnet.fit`` and require the quality that fit.json gave."""
    name = "ordnet.fit reproduces fit.json quality"
    try:
        doc = read_document(work / "fit.json", "fit")
        truth = read_document(work / "data" / "truth.json", "truth")
        hp = doc["hyperparameters"]
        hyper = Hyperparameters(
            nu0={int(a): v for a, v in hp["nu0"].items()}, nu1=hp["nu1"],
            lambda_diag=hp["lambda_diag"], n0=hp["n0"], t0_sq=hp["t0_sq"],
            alpha_sigma=hp["alpha_sigma"], beta_sigma=hp["beta_sigma"],
        )
        controls = FitControls(**{
            k: int(v) for k, v in workload.fit.items() if k in ("max_iter", "min_iter")
        })
        dataset = cli.load_grouped_dataset(str(work / "data" / "manifest.csv")).prepare()
        report = fit(dataset, hyper, controls)
    except Exception:  # the refit is one more operation; its crash is a failure
        ledger.record(name, False, traceback.format_exc())
        return
    state = report.final_state
    mismatches = []
    for row in quality or []:
        level = row["level"]
        again = edge_quality(np.asarray(state.ppi[level]), truth["adjacency"][str(level)])
        again["iterations"] = report.iterations
        mismatches += [
            (level, key) for key, value in again.items() if abs(value - row[key]) > 1e-12
        ]
    ledger.record(name, bool(quality) and not mismatches, f"differ: {mismatches}")


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values: list[float]) -> float:
    """The sample with ten samples beyond it: the highest percentile that has
    at least ten; the maximum when there are eleven samples or fewer."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[len(ordered) - 11] if len(ordered) > 11 else ordered[-1]


def probe_final_states(tracer: Tracer) -> dict[str, object]:
    """Time one precision sweep per level and one ELBO on the fit command's final states."""
    sweeps, elbos, p = [], [], 0
    for record in tracer.fits:
        if record.command != "cli.fit":
            continue
        data, state, hyper = record.data, record.state, record.hyper
        p = state.p
        for level in state.levels:
            y = data.group(level)
            scatter = sample_covariance(y)
            times = []
            for _ in range(PROBE_REPEATS):
                scratch = state.copy()
                start = time.perf_counter()
                cm_update_precision(scratch, hyper, scatter, y.shape[0], level)
                times.append(time.perf_counter() - start)
            sweeps.append(_median(times))
        times = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            compute_elbo(state, hyper, data, covariate_model=record.covariate_model)
            times.append(time.perf_counter() - start)
        elbos.append(_median(times))
    return {"p": p, "sweep_s_per_level": sweeps, "elbo_s_per_fit": elbos}


def layer_metrics(tracer: Tracer, quality: list[dict] | None, probes: dict,
                  traced: Pass, untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics; times are scaled to the nominal machine speed.

    Span and callback times take the speed of the traced pass (set-up spans
    ran just before it), probe times the speed measured while probing.
    """
    totals = tracer.totals()

    def total(*names: str) -> float:
        return sum(totals.get(n, {}).get("total_s", 0.0) for n in names)

    def calls(*names: str) -> int:
        return sum(int(totals.get(n, {}).get("calls", 0)) for n in names)

    fits = tracer.fits
    gaps = [g for r in fits for g in r.iter_gaps]
    grid = sum(len(r.grid) * len(r.selected) for r in tracer.searches)
    failed = sum(1 for r in tracer.searches for msgs in r.failures.values() for m in msgs if m)
    simulate_calls = max(1, calls("simulate.simulate_experiment"))
    self_times = tracer.layer_self_times()
    metrics: dict[str, tuple[float, str]] = {
        "engine.sweep_probe_s": (_median(probes["sweep_s_per_level"]), "s"),
        "engine.first_iter_s": (
            _median(r.first_iter_s for r in fits if r.first_iter_s is not None), "s"),
        "engine.iter_s_median": (_median(gaps), "s"),
        "engine.iter_s_tail": (tail(gaps), "s"),
        "engine.iter_samples": (len(gaps), "count"),
        "engine.iterations": (sum(r.iterations for r in fits), "count"),
        "engine.factor_update_s": (total(*FACTOR_UPDATES), "s"),
        "engine.factor_update_calls": (calls(*FACTOR_UPDATES), "count"),
        "engine.elbo_probe_s": (sum(probes["elbo_s_per_fit"]), "s"),
        "engine.fit_calls": (len(fits), "count"),
        "engine.converged_frac": (
            sum(r.converged for r in fits) / len(fits) if fits else 0.0, "frac"),
        "engine.edges_ppi05": (
            _median(q["edges_ppi05"] for q in quality or []), "count"),
        "baseline.fit_ssl_s": (total("baseline.fit_ssl"), "s"),
        "baseline.fit_ssl_calls": (calls("baseline.fit_ssl"), "count"),
        "selection.refit_s": (total("selection.refit_precision"), "s"),
        "selection.refit_calls": (calls("selection.refit_precision"), "count"),
        "selection.ebic_s": (total("selection.ebic"), "s"),
        "selection.grid_points": (grid, "count"),
        "selection.failed_points": (failed, "count"),
        "cli.load_s": (total("cli.load_grouped_dataset"), "s"),
        "cli.read_json_s": (total("cli.read_json"), "s"),
        "cli.write_json_s": (total("cli.write_json"), "s"),
        "metrics.evaluate_s": (total("metrics.evaluate_fit"), "s"),
        "metrics.rank_s": (
            total("metrics.top_k_edge_subnetworks", "metrics.rank_nodes_by_beta"), "s"),
        "simulate.experiment_s": (
            total("simulate.simulate_experiment") / simulate_calls, "s"),
        "core.prepare_s": (total("core.prepare"), "s"),
        "trace_overhead_frac": (
            traced.wall_s / untraced_wall - 1.0 if untraced_wall > 0 else 0.0, "frac"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_times.get(layer, 0.0), "s")
    return {
        name: (value * (probes["speed"] if name.endswith("probe_s") else traced.timed.speed)
               if unit == "s" else value, unit)
        for name, (value, unit) in metrics.items()
    }


def environment(root: Path) -> dict[str, object]:
    """Commit, interpreter, library and BLAS builds, CPU and thread settings."""
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=30, check=False, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        )
        commit = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except OSError:
        commit = "unknown (git not available)"
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: config.get(k) for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        blas = "unavailable"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "commit": commit,
        "python": sys.version,
        "platform": platform.platform(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_lapack": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "cpu_model": cpu,
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 root: Path, out_dir: Path) -> tuple[dict, dict]:
    """One benchmark run; returns the result line and the detailed record."""
    ledger = Ledger()
    (out_dir / "work").mkdir(parents=True, exist_ok=True)
    detail: dict[str, object] = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(root),
    }
    with tempfile.TemporaryDirectory(dir=out_dir / "work") as tmp:
        work = Path(tmp)
        setups = [setup(workload, seed, work, root, ledger) for _ in range(SETUP_REPEATS)]
        passes = []
        start = time.perf_counter()
        # Start a pass only if it should end within the measuring time, judged
        # by the last one.  A run that has failed stops after its first pass:
        # failed passes are fast.
        while not passes or (
            time.perf_counter() - start + passes[-1].timed.raw_s <= seconds
            and not ledger.failed
        ):
            passes.append(run_pass(workload, work, ledger))
        quality = passes[-1].quality
        untraced_wall = _median(p.wall_s for p in passes)
        detail.update({
            "setup_s": setups,
            "passes": [p.record() for p in passes],
            "quality_per_level": quality,
        })
        if not trace:
            metrics = {
                "wall_s": (untraced_wall, "s"),
                "setup_s": (_median(setups), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                **summarise_quality(quality, workload.joint),
            }
        else:
            tracer = Tracer()
            with tracer.installed():
                setup(workload, seed, work, root, ledger, tracer)
                traced = run_pass(workload, work, ledger, tracer)
            with Timed(LAPACK) as probing:
                probes = probe_final_states(tracer)
            probes["speed"] = probing.speed
            if workload.cross_check:
                cross_check(workload, work, traced.quality, ledger)
            metrics = layer_metrics(tracer, traced.quality, probes, traced, untraced_wall)
            detail.update({
                "traced_pass": traced.record(),
                "probes": probes,
                "fits": [
                    {"command": r.command, "iterations": r.iterations,
                     "converged": r.converged, "first_iter_s": r.first_iter_s,
                     "iter_gaps_s": r.iter_gaps}
                    for r in tracer.fits
                ],
                "span_totals": tracer.totals(),
                "spans": tracer.span_dicts(),
            })
    if not trace:
        metrics["success_frac"] = (1.0 - ledger.failed / max(1, ledger.attempted), "frac")
    detail.update({
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failed_frac": ledger.failed / max(1, ledger.attempted),
        "failures": ledger.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": detail["metrics"],
    }
    return result, detail


def write_detail(detail: dict, out_dir: Path) -> Path:
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{detail['workload']}-seed{detail['seed']}-trace{int(detail['trace'])}.json"
    path.write_text(json.dumps(detail, indent=1, default=str) + "\n", encoding="utf-8")
    return path
