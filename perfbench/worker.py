"""The process that does the in-process work of the `volumes` and `reports` workloads.

Usage: worker.py WORKLOAD ITEMS OUTPUTS SECONDS MODE

MODE is `setup` (import, run the warm-up item, print `ready`, exit),
`timed` (then run items from ITEMS one at a time until SECONDS pass) or
`traced` (then run every item in ITEMS under spans, each followed by an
untraced repeat for the overhead ratio).  Item times are scaled to
reference speed by speed.Scaler; the raw ones are kept beside them.  ITEMS holds one JSON line per item, the warm-up item first.
The package comes from PYTHONPATH, which the caller points at the
checkout's `src/`.  Per-item outputs go to OUTPUTS as JSON lines; a
summary goes to stdout as the last line.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from fractions import Fraction

from speed import Scaler


def volumes_item(sk, rows):
    d = sk.SquaredDistanceMatrix(rows)
    return sk.volume_sq(d), sk.circumradius_sq(d), sk.is_realizable(d)


def reports_item(sk, rows):
    d = sk.SquaredDistanceMatrix(rows)
    return sk.classify(d), sk.coincidence_report(d, with_floats=True)


def volumes_json(result):
    vol, rad, verdict = result
    return {"volume_sq": str(vol), "circumradius_sq": str(rad),
            "status": verdict.status.value, "gram_inertia": list(verdict.gram_inertia)}


def reports_json(result):
    classification, coincidence = result
    return {"classification": classification.to_json(), "coincidence": coincidence.to_json()}


ITEMS = {"volumes": (volumes_item, volumes_json), "reports": (reports_item, reports_json)}


def _parse(line):
    item = json.loads(line)
    return item["id"], item["label"], [[Fraction(x) for x in row] for row in item["a"]]


def _run(sk, fn, ident, rows, tracer=None):
    """One item: (latency in ms, result or None, error text or None)."""
    start = time.perf_counter()
    try:
        result = tracer.item(ident, fn, sk, rows) if tracer else fn(sk, rows)
        error = None
    except Exception as exc:  # a failing item is counted, not fatal
        result, error = None, "%s: %s" % (type(exc).__name__, exc)
    return (time.perf_counter() - start) * 1e3, result, error


def main(argv) -> int:
    workload, items_path, outputs_path, seconds, mode = argv
    seconds = float(seconds)
    import simplexkite as sk

    fn, to_json = ITEMS[workload]
    with open(items_path, encoding="utf-8") as items:
        fn(sk, _parse(items.readline())[2])
        print("ready", flush=True)
        if mode == "setup":
            return 0
        tracer = None
        if mode == "traced":
            from spans import Tracer, summarize

            tracer = Tracer()
            tracer.install()
        scaler = Scaler()
        summary = {"module": sk.__file__, "exhausted": True}
        labels, factors, traced_ms, untraced_ms = {}, {}, 0.0, 0.0
        with open(outputs_path, "w", encoding="utf-8") as out:
            count, start, end = 0, time.perf_counter(), None
            for line in items:
                if mode == "timed" and time.perf_counter() - start >= seconds:
                    summary["exhausted"] = False
                    break
                ident, label, rows = _parse(line)
                labels[ident] = label
                raw_ms, result, error = _run(sk, fn, ident, rows, tracer)
                ms = scaler.scale(raw_ms)
                if tracer:
                    # The same item once more without spans, right after,
                    # so drift hits both sides of the overhead ratio alike.
                    tracer.uninstall()
                    factors[ident] = ms / raw_ms
                    traced_ms += ms
                    untraced_ms += scaler.scale(_run(sk, fn, ident, rows)[0])
                    tracer.install()
                end = time.perf_counter()
                count += 1
                record = {"id": ident, "label": label, "ms": ms, "raw_ms": raw_ms, "error": error,
                          "out": None if result is None else to_json(result)}
                out.write(json.dumps(record) + "\n")
    summary.update(items=count, wall_s=(end or start) - start,
                   peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if tracer:
        tracer.uninstall()
        summary["layers"], summary["span_check_failures"] = summarize(tracer.spans, labels, factors)
        summary["spans"] = tracer.spans
        summary["overhead_ratio"] = untraced_ms / traced_ms if traced_ms else 0.0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
