"""flockstab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload size-scan --seed 1 --seconds 35 --trace 0

Set-up runs the input generator in fresh interpreters; then passes of the
workload run in-process through ``flockstab.cli.main`` until the next pass
would end after ``--seconds`` (at least two passes).  With ``--trace 0``
the last stdout line carries the end-to-end metrics; with ``--trace 1``
passes alternate untraced and traced, and it carries the per-layer
metrics computed from the traced passes plus the tracing overhead.
Details (environment, pass times, output hashes, failures) go to
``.perfbench_out/`` in the checkout, spans too on traced runs.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: one BLAS thread and no scan thread pool, so a
# run measures the code rather than contention on a shared machine.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ.pop("FLOCKSTAB_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 9
MIN_PASSES = 2
MAX_PASSES = 200

NOTES = [
    "reproduce-targets and size-scan run the paper's fixed specs and ignore --seed",
    "known classify misverdict at n ~ 40000 (ROADMAP item 2) lies outside "
    "spectrum-sweep's sizes: the current spectrum costs ~8 s per spec there",
    "FLOCKSTAB_THREADS is unset (scan runs serially) and OPENBLAS_NUM_THREADS=1",
]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="flockstab benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def setup(workload: str, seed: int, work: Path) -> tuple[float, Path, list[float]]:
    """Fresh-interpreter import of flockstab plus input generation, repeated."""
    times = []
    for i in range(SETUP_REPEATS):
        target = work / f"inputs-{i}"
        cmd = [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
               "--seed", str(seed), "--out", str(target)]
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, capture_output=True)
        times.append(time.perf_counter() - start)
    first = (work / "inputs-0" / "inputs.json").read_bytes()
    for i in range(1, SETUP_REPEATS):
        if (work / f"inputs-{i}" / "inputs.json").read_bytes() != first:
            raise RuntimeError("input generation is not deterministic for this seed")
    return statistics.median(times), work / "inputs-0", times


def run_job(main, job):
    from workloads import Outcome

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(job.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed job, not a failed run
            rc = "exception"
            err.write(traceback.format_exc())
    return Outcome(rc, out.getvalue(), err.getvalue())


def hash_tree(path: Path) -> dict[str, str]:
    digests = {}
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h = hashlib.sha256()
        with open(f, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        digests[f.relative_to(path).as_posix()] = h.hexdigest()
    return digests


def environment() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_threads": _openblas_threads(),
        "FLOCKSTAB_THREADS": os.environ.get("FLOCKSTAB_THREADS"),
    }


def _openblas_threads():
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return os.environ.get("OPENBLAS_NUM_THREADS")


def layer_metrics(spans, traced_passes: int, pass_times, measured: dict) -> dict:
    """Per-layer numbers per traced pass, from the recorded spans."""
    from spans import has_ancestor, self_times, summarize

    selfs = self_times(spans)
    rows = summarize(spans, selfs)
    per = 1.0 / traced_passes

    def row(name):
        return rows.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    sim = row("simulation.simulate")
    by_size: dict[int, list[float]] = {}
    for (name, _, _, _, extra), own in zip(spans, selfs):
        if name == "simulation.simulate" and "steps" in extra:
            acc = by_size.setdefault(extra["vehicles"], [0.0, 0])
            acc[0] += own
            acc[1] += extra["steps"]
    step_us = {n: 1e6 * s / steps for n, (s, steps) in by_size.items()}
    csv_bytes = sum(rows[n].get("bytes", 0) for n in rows if n.endswith("_csv"))
    csv_s = sum(rows[n]["s"] for n in rows if n.endswith("_csv"))
    dense_checks = sum(
        1 for i, s in enumerate(spans)
        if s[0] == "model.assemble_periodic" and has_ancestor(spans, i, "spectral.classify")
    )
    cli_self = sum(r["self_s"] for n, r in rows.items() if n.startswith("cli.cmd_"))
    return {
        "simulation.simulate.self_s": (sim["self_s"] * per, "s"),
        "simulation.rk4_steps": (sim.get("steps", 0) * per, "count"),
        "simulation.vehicle_steps_per_s": (
            sim.get("vehicle_steps", 0) / sim["self_s"] if sim["self_s"] else 0.0, "1/s"),
        "simulation.step_us.min_N": (step_us[min(step_us)] if step_us else 0.0, "us"),
        "simulation.step_us.max_N": (step_us[max(step_us)] if step_us else 0.0, "us"),
        "simulation.transient.s": (row("simulation.transient")["s"] * per, "s"),
        "simulation.scan_N.self_s": (row("simulation.scan_N")["self_s"] * per, "s"),
        "simulation.blowups": (sim.get("error:BlowUp", 0) * per, "count"),
        "reports.write_trajectory_csv.s": (row("reports.write_trajectory_csv")["s"] * per, "s"),
        "reports.write_spectrum_csv.s": (row("reports.write_spectrum_csv")["s"] * per, "s"),
        "reports.bytes_written": (measured["bytes_per_pass"], "bytes"),
        "reports.csv_mb_per_s": (csv_bytes / csv_s / 1e6 if csv_s else 0.0, "MB/s"),
        "reports.trajectory_svg.s": (row("reports.trajectory_svg")["s"] * per, "s"),
        "svg.render_plot.s": (row("svg.render_plot")["s"] * per, "s"),
        "spectral.spectrum_periodic.self_s": (
            row("spectral.spectrum_periodic")["self_s"] * per, "s"),
        "spectral.char_poly.s": (row("spectral.char_poly")["s"] * per, "s"),
        "spectral.char_poly.calls": (row("spectral.char_poly")["calls"] * per, "count"),
        "spectral.mode_roots.s": (row("spectral.mode_roots")["s"] * per, "s"),
        "spectral.mode_roots.calls": (row("spectral.mode_roots")["calls"] * per, "count"),
        "spectral.classify.self_s": (row("spectral.classify")["self_s"] * per, "s"),
        "spectral.classify.dense_checks": (dense_checks * per, "count"),
        "model.assemble_periodic.s": (row("model.assemble_periodic")["s"] * per, "s"),
        "model.assemble_periodic.calls": (
            row("model.assemble_periodic")["calls"] * per, "count"),
        "model.assemble_line.s": (row("model.assemble_line")["s"] * per, "s"),
        "model.assemble_line.calls": (row("model.assemble_line")["calls"] * per, "count"),
        "conditions.conditions.s": (row("conditions.conditions")["s"] * per, "s"),
        "rootcurves.track_branches.s": (row("rootcurves.track_branches")["s"] * per, "s"),
        "cli.self_s": (cli_self * per, "s"),
        "cli.reproduce.published_rel_err": (measured["published_rel_err"], "ratio"),
        "trace.overhead_s": (
            statistics.median(pass_times[True]) - statistics.median(pass_times[False]), "s"),
        "trace.spans": (len(spans) * per, "count"),
    }


def measure(args, workload_cls, work: Path) -> tuple[dict, dict]:
    setup_s, inputs, setup_times = setup(args.workload, args.seed, work)

    sys.path.insert(0, str(SRC))
    import flockstab
    import flockstab.cli
    from spans import Tracer

    if Path(flockstab.__file__).resolve().parent != (SRC / "flockstab").resolve():
        raise RuntimeError(f"flockstab imported from {flockstab.__file__}, not {SRC}")
    workload = workload_cls(inputs)
    tracer = Tracer()
    pass_times: dict[bool, list[float]] = {False: [], True: []}
    attempted = failed = 0
    failures: list[str] = []
    first_hashes: dict[str, dict] = {}
    bytes_per_pass = 0
    rel_errs: list[float] = []
    oracle = []
    start = time.perf_counter()
    for i in range(MAX_PASSES):
        traced = bool(args.trace) and i % 2 == 1
        pdir = work / f"pass-{i}"
        pdir.mkdir()
        jobs = workload.jobs(pdir)
        with tracer.installed() if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            outcomes = [run_job(flockstab.cli.main, job) for job in jobs]
            pass_times[traced].append(time.perf_counter() - t0)
        pass_bytes = 0
        for job, res in zip(jobs, outcomes):
            try:
                problems = job.gate(job, res)
            except (OSError, LookupError, ValueError) as exc:
                problems = [f"output unreadable: {exc!r}"]
            hashes = hash_tree(job.out)
            pass_bytes += sum(f.stat().st_size for f in job.out.rglob("*") if f.is_file())
            if first_hashes.setdefault(job.name, hashes) != hashes:
                problems.append("output bytes differ from the first pass")
            rel_errs.append(job.info.get("published_rel_err", 0.0))
            if "oracle_distance" in job.info:
                oracle.append(job.info["oracle_distance"])
            attempted += 1
            if problems:
                failed += 1
                failures.append(f"pass {i} {job.name}: {'; '.join(problems)}")
        bytes_per_pass = pass_bytes
        shutil.rmtree(pdir)
        all_times = pass_times[False] + pass_times[True]
        elapsed = time.perf_counter() - start
        if i + 1 >= MIN_PASSES and elapsed + statistics.median(all_times) > args.seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pass_s = statistics.median(pass_times[False])
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "notes": NOTES,
        "setup_times_s": setup_times,
        "pass_times_s": pass_times[False],
        "traced_pass_times_s": pass_times[True],
        "work_per_pass": {workload.work_unit: workload.work},
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "published_rel_err": max(rel_errs),
        "max_oracle_distance": max(oracle) if oracle else None,
        "output_sha256": first_hashes,
        "same_bytes_as_seed": _compare_with_seed(args.workload, first_hashes),
    }
    if args.trace:
        metrics = layer_metrics(tracer.spans, len(pass_times[True]), pass_times, {
            "bytes_per_pass": bytes_per_pass, "published_rel_err": max(rel_errs)})
        details["spans_file"] = _write_spans(tracer.spans, args)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "pass_s": (pass_s, "s"),
            "work_per_s": (workload.work / pass_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "success_ratio": (1.0 - failed / attempted, "ratio"),
        }
    details["metrics"] = {k: v for k, (v, _) in metrics.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, details


def _compare_with_seed(workload: str, hashes: dict) -> dict:
    """Which outputs of the figure specs are byte-identical to the seed code's."""
    with open(HERE / "seed_sha256.json", encoding="utf-8") as fh:
        reference = json.load(fh)[workload]
    same, changed = [], []
    for job, files in reference.items():
        for name, digest in files.items():
            key = f"{job}/{name}"
            (same if hashes.get(job, {}).get(name) == digest else changed).append(key)
    return {"same": len(same), "changed": changed}


def _write_spans(spans, args) -> str:
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, extra in spans:
            fh.write(json.dumps([name, start, end, parent, extra]) + "\n")
    return path.name


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "flockstab" / "__init__.py").is_file():
        print(f"error: no flockstab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        result, details = measure(args, WORKLOADS[args.workload], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=2)
    for line in details["failures"][:20]:
        print(f"FAILED {line}")
    seed_bytes = details["same_bytes_as_seed"]
    print(f"outputs byte-identical to the seed code: {seed_bytes['same']} files, "
          f"changed: {seed_bytes['changed']}")
    print(f"passes {details['pass_times_s']} traced {details['traced_pass_times_s']}; "
          f"details in {OUT.name}/{name}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
