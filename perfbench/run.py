"""simplexkite benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload {volumes,reports,cli} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the package from the
checkout's `src/` and gives every subprocess the matching PYTHONPATH.
Each workload is a closed loop in one process: one item at a time, the
next starting when the last ends.  With `--trace 0` the last stdout line
holds the end-to-end metrics, with `--trace 1` the per-layer metrics of
a separate traced run; the line before it holds the environment and the
design checks.  Outputs are checked outside the timed region; an item
that raises or fails a check counts as failed.  See README.md.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
from speed import Scaler, pin

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKER = Path(__file__).resolve().parent / "worker.py"
ENV = dict(os.environ, PYTHONPATH=str(SRC))
SETUPS = 9  # fresh-interpreter set-ups per run; setup_s is their median

END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "latency_p50_ms": "ms",
              "latency_p90_ms": "ms", "peak_rss_mb": "MB", "ok_ratio": "ratio"}
SUBCOMMANDS = ("classify", "prekite-eval", "prekite-feasible", "equiareal-scan",
               "rel", "pompeiu", "embed", "centers")
PER_LAYER = {
    "exact.calls_per_item": "count", "exact.self_ms_per_item": "ms", "exact.share": "ratio",
    "exact.result_bits_max": "bits",
    "cayley.calls_per_item": "count", "cayley.self_ms_per_item": "ms",
    "cayley.volume_sq_n10_ms": "ms", "cayley.volume_sq_n30_ms": "ms",
    "prekite.self_ms_per_item": "ms",
    "centers.self_ms_per_item": "ms", "centers.exact_calls_per_report": "count",
    "centers.exact_calls_per_report_n8": "count",
    "centers.coincidence_report_n10_ms": "ms",
    "families.self_ms_per_item": "ms",
    "geometry.self_ms_per_item": "ms", "geometry.embed_ms_per_item": "ms",
    "geometry.incenter_ms_per_item": "ms", "geometry.fermat_ms_per_item": "ms",
    "geometry.incenter_n10_ms": "ms", "geometry.embed_max_rel_error": "ratio",
    "relation.self_ms_per_item": "ms",
    "cli.self_ms_per_item": "ms", "cli.compute_ms_per_item": "ms", "cli.interp_ms": "ms",
    "cli.import_ms": "ms", "cli.numpy_import_ms": "ms",
    **{"cli.%s_p50_ms" % sub.replace("-", "_"): "ms" for sub in SUBCOMMANDS},
    "tracing.overhead_ratio": "ratio",
}

# Seconds one block of items takes on the 2-core host the benchmark was
# sized on (volumes 40 items, reports and cli 20).  A timed run gets a pool of twice what it can
# finish; a program more than twice as fast runs out of items early and
# is still measured right.  A traced run takes one block per two blocks'
# time, so it spends about half the run traced and half replaying the
# same items untraced.
BLOCK_SECONDS = {"volumes": 2.8, "reports": 2.3, "cli": 6.0}


class RunError(Exception):
    """The run itself broke down (not an item failure): no result is printed."""


def environment(module: str) -> dict:
    cpu = platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "module": module,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "pinned_to": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def import_program():
    sys.path.insert(0, str(SRC))
    import simplexkite
    import simplexkite.cli

    return simplexkite


def percentile_class(records, q):
    """Label of the item at latency quantile q, and the share of its
    neighbours (+-2.5% of the ranks) that carry the same label."""
    ranked = sorted(records, key=lambda r: r["ms"])
    idx = round(q * (len(ranked) - 1))
    half = max(2, round(0.025 * len(ranked)))
    window = ranked[max(0, idx - half): idx + half + 1]
    label = ranked[idx]["label"]
    return label, sum(r["label"] == label for r in window) / len(window)


def latency_metrics(records, key="ms"):
    """Throughput over the summed item times (the harness's own work
    between items left out) and the latency percentiles."""
    ms = [r[key] for r in records]
    return {
        "items_per_s": len(ms) / (sum(ms) / 1e3),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0],
    }


def raw_metrics(records, setups, wall_items_per_s) -> dict:
    """The unscaled figures, and how far the probe moved them."""
    raw = latency_metrics(records, "raw_ms")
    raw.update(setup_s=statistics.median(r for _, r in setups), wall_items_per_s=wall_items_per_s,
               speed_factor=statistics.median(r["ms"] / r["raw_ms"] for r in records))
    return raw


def design(records) -> dict:
    """Which class sets each latency percentile, and each class's median."""
    by_class = collections.defaultdict(list)
    for r in records:
        by_class[r["label"]].append(r["ms"])
    p50, p50_purity = percentile_class(records, 0.5)
    p90, p90_purity = percentile_class(records, 0.9)
    return {
        "p50_class": p50, "p50_purity": p50_purity,
        "p90_class": p90, "p90_purity": p90_purity,
        "class_median_ms": {k: statistics.median(v) for k, v in sorted(by_class.items())},
        "class_items": {k: len(v) for k, v in sorted(by_class.items())},
    }


def result_line(metrics, units, attempted, failed, correct):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }


def pool_blocks(workload, seconds):
    return max(2, round(2 * seconds / BLOCK_SECONDS[workload]))


def trace_blocks(workload, seconds):
    return max(1, round(seconds / (2 * BLOCK_SECONDS[workload])))


# --- in-process workloads: volumes and reports --------------------------------


def _start_worker(workload, items_path, outputs_path, seconds, mode):
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), workload, str(items_path), str(outputs_path), str(seconds), mode],
        stdout=subprocess.PIPE, env=ENV, cwd=ROOT, text=True)
    ready = proc.stdout.readline().strip()
    setup_s = time.perf_counter() - start
    if ready != "ready":
        proc.kill()
        proc.wait()
        raise RunError("worker did not get ready (exit %s)" % proc.returncode)
    return proc, setup_s


def run_inprocess(workload, seed, seconds, trace, workdir):
    sk = None
    if workload == "volumes":
        make = lambda blocks: inputs.volumes(seed, blocks)  # noqa: E731
    else:
        sk = import_program()
        make = lambda blocks: inputs.reports(seed, blocks, sk)  # noqa: E731
    warm, items = make(trace_blocks(workload, seconds) if trace else pool_blocks(workload, seconds))
    by_id = {item["id"]: item for item in items}
    items_path, outputs_path = workdir / "items.jsonl", workdir / "outputs.jsonl"
    items_path.write_text("".join(inputs.wire(x) + "\n" for x in [warm] + items), encoding="utf-8")

    scaler, setups = Scaler(), []
    for _ in range(SETUPS - 1):
        proc, setup_s = _start_worker(workload, items_path, outputs_path, seconds, "setup")
        proc.communicate()
        setups.append((scaler.scale(setup_s), setup_s))
    proc, setup_s = _start_worker(workload, items_path, outputs_path, seconds, "traced" if trace else "timed")
    setups.append((scaler.scale(setup_s), setup_s))
    try:
        out, _ = proc.communicate(timeout=seconds + 150)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError("worker timed out")
    if proc.returncode != 0:
        raise RunError("worker exited with %d" % proc.returncode)
    summary = json.loads(out.strip().splitlines()[-1])

    records, problems = [], []
    with open(outputs_path, encoding="utf-8") as fh:
        for line in fh:
            r = json.loads(line)
            item = by_id[r["id"]]
            if r["error"]:
                found = [r["error"]]
            elif workload == "volumes":
                found = checks.check_volume(item, r["out"])
            else:
                d = sk.SquaredDistanceMatrix(item["a"])
                found = checks.check_report(item, r["out"], sk.embed(d).max_rel_error)
            r["ok"] = not found
            problems += ["item %d (%s): %s" % (r["id"], r["label"], p) for p in found]
            records.append(r)
    if not records:
        raise RunError("no item completed")

    info = {"env": environment(summary["module"]), "items": len(records),
            "pool_exhausted": summary["exhausted"], "design": design(records),
            "raw": raw_metrics(records, setups, summary["items"] / summary["wall_s"])}
    metrics = dict(latency_metrics(records), setup_s=statistics.median(s for s, _ in setups),
                   peak_rss_mb=summary["peak_rss_kb"] / 1024)
    if trace:
        metrics.update(summary["layers"], **{"tracing.overhead_ratio": summary["overhead_ratio"]})
        info["span_check_failures"] = summary["span_check_failures"]
        (WORK / ("trace-%s.json" % workload)).write_text(json.dumps(summary["spans"]), encoding="utf-8")
    return records, problems, metrics, info, summary["module"]


# --- cli workload: one subprocess per item ------------------------------------


def run_child(cmd):
    """Run a child to completion: (ms, exit code, stdout, peak RSS in KB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=ENV, cwd=ROOT)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    ms = (time.perf_counter() - start) * 1e3
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ms, proc.returncode, out, usage.ru_maxrss


def in_process(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        cli.main(list(argv))
    return buf.getvalue()


def import_times():
    """Cumulative import time of simplexkite.cli and of numpy, from -X importtime."""
    err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import simplexkite.cli"],
                         capture_output=True, text=True, env=ENV, cwd=ROOT, check=True).stderr
    found = {}
    for line in err.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if m and m.group(2) in ("simplexkite.cli", "numpy"):
            found[m.group(2)] = int(m.group(1)) / 1e3
    return found.get("simplexkite.cli", 0.0), found.get("numpy", 0.0)


def run_cli(seed, seconds, trace, workdir):
    blocks = trace_blocks("cli", seconds) if trace else pool_blocks("cli", seconds)
    items = inputs.cli(seed, blocks, workdir)
    base = [sys.executable, "-m", "simplexkite"]

    scaler, setups = Scaler(), []
    for _ in range(SETUPS):
        setup_s = run_child([sys.executable, "-c", "import simplexkite.cli"])[0] / 1e3
        setups.append((scaler.scale(setup_s), setup_s))
    records, interp = [], []
    start = time.perf_counter()
    exhausted = True
    for k, item in enumerate(items):
        if not trace and time.perf_counter() - start >= seconds:
            exhausted = False
            break
        ms, code, out, rss = run_child(base + item["argv"])
        records.append({"id": item["id"], "label": item["label"], "sub": item["sub"], "argv": item["argv"],
                        "ms": scaler.scale(ms), "raw_ms": ms, "code": code, "stdout": out, "rss_kb": rss})
        if trace and k % 5 == 4:
            interp.append(scaler.scale(run_child([sys.executable, "-c", "pass"])[0]))
    wall_s = time.perf_counter() - start
    if not records:
        raise RunError("no item completed")

    sk = import_program()
    tracer = None
    if trace:
        from spans import Tracer, summarize

        tracer = Tracer()
    compute_ms, traced_ms, factors, expected = [], 0.0, {}, []
    for r in records:
        t0 = time.perf_counter()
        expected.append(in_process(sk.cli, r["argv"]))
        compute_ms.append(scaler.scale((time.perf_counter() - t0) * 1e3))
        if tracer:
            tracer.install()
            t0 = time.perf_counter()
            tracer.item(r["id"], in_process, sk.cli, r["argv"])
            raw_ms = (time.perf_counter() - t0) * 1e3
            tracer.uninstall()
            factors[r["id"]] = scaler.scale(raw_ms) / raw_ms
            traced_ms += raw_ms * factors[r["id"]]
    problems = []
    for r, text in zip(records, expected):
        found = checks.check_cli(r["code"], r["stdout"], text)
        r["ok"] = not found
        problems += ["item %d (%s): %s" % (r["id"], " ".join(r["argv"][:2]), p) for p in found]

    info = {"env": environment(sk.__file__), "items": len(records),
            "pool_exhausted": exhausted, "design": design(records),
            "raw": raw_metrics(records, setups, len(records) / wall_s)}
    metrics = dict(latency_metrics(records), setup_s=statistics.median(s for s, _ in setups),
                   peak_rss_mb=max(r["rss_kb"] for r in records) / 1024)
    if tracer:
        layers, info["span_check_failures"] = summarize(
            tracer.spans, {r["id"]: r["label"] for r in records}, factors)
        (WORK / "trace-cli.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
        imports = []
        for _ in range(3):
            cli_ms, numpy_ms = import_times()
            factor = scaler.factor()
            imports.append((cli_ms * factor, numpy_ms * factor))
        metrics.update(layers)
        metrics.update({
            "cli.compute_ms_per_item": statistics.fmean(compute_ms),
            "cli.interp_ms": statistics.median(interp),
            "cli.import_ms": statistics.median(i[0] for i in imports),
            "cli.numpy_import_ms": statistics.median(i[1] for i in imports),
            "tracing.overhead_ratio": sum(compute_ms) / traced_ms,
        })
        for sub in SUBCOMMANDS:
            ms = [r["ms"] for r in records if r["sub"] == sub]
            metrics["cli.%s_p50_ms" % sub.replace("-", "_")] = statistics.median(ms) if ms else 0.0
    return records, problems, metrics, info, sk.__file__


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("volumes", "reports", "cli"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "simplexkite" / "__init__.py").is_file():
        print("error: no simplexkite package under %s; run from a checkout" % SRC, file=sys.stderr)
        return 2
    pin()

    WORK.mkdir(exist_ok=True)
    workdir = WORK / ("run-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    workdir.mkdir()
    try:
        if args.workload == "cli":
            run = run_cli(args.seed, args.seconds, bool(args.trace), workdir)
        else:
            run = run_inprocess(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        records, problems, metrics, info, module = run
    except RunError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not r["ok"] for r in records)
    metrics["ok_ratio"] = (len(records) - failed) / len(records)
    own_package = Path(module).resolve() == (SRC / "simplexkite" / "__init__.py").resolve()
    if not own_package:
        problems.append("imported %s, not the checkout's package" % module)
    if info.get("span_check_failures"):
        problems.append("%d spans whose children do not tile inside them" % info["span_check_failures"])
    info["problems"] = problems[:20]
    print(json.dumps({"info": info}))
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps(result_line(metrics, units, len(records), failed, not problems)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
