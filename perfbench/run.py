"""Benchmark for artdesc: describe, train and kb workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload describe --seed 1 --seconds 10 --trace 0

``--workload`` is describe, train, kb, or all (the three in turn). With
``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it attaches span probes to the package's modules and
reports the per-layer metrics instead, with the tracing overhead. Inputs
come from ``--seed``. The last line on stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it list
the workload's own metrics by name. Results, machine metadata and span
files go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

# fixed before numpy loads; measure.BLAS_THREADS records the same count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
WORKLOADS = ("describe", "train", "kb")


class _WarningCounter(logging.Handler):
    """Counts the package's log records by message template instead of
    printing thousands of expected warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts: Counter = Counter()

    def emit(self, record: logging.LogRecord) -> None:
        self.counts[f"{record.name}: {record.msg}"] += 1


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_package():
    if not (ROOT / "src" / "artdesc" / "__init__.py").is_file():
        sys.exit(f"error: no artdesc sources under {ROOT / 'src'}; "
                 "run from the root of a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import artdesc

    if Path(artdesc.__file__).resolve().parent != (ROOT / "src" / "artdesc").resolve():
        sys.exit(f"error: imported artdesc from {artdesc.__file__}, not from this checkout")


def _declared(kind: str) -> list[tuple[str, str]]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in bench[kind]]


def _metrics_json(values: dict, declared: list[tuple[str, str]]) -> dict:
    """The declared metrics, in order, each with the unit BENCHMARK.json
    gives it; a missing metric or a unit mismatch is a benchmark bug."""
    out = {}
    for name, unit in declared:
        value, got_unit = values[name]
        if got_unit != unit:
            raise ValueError(f"metric {name}: unit {got_unit!r}, declared {unit!r}")
        out[name] = {"value": value, "unit": unit}
    return out


def _run_workload(name: str, args, warnings: _WarningCounter) -> tuple[dict, dict]:
    import wl_describe
    import wl_kb
    import wl_train
    from measure import machine_metadata, speed_probe_ms

    module = {"describe": wl_describe, "train": wl_train, "kb": wl_kb}[name]
    workdir = OUT / "work" / f"{name}-{args.seed}-{os.getpid()}"
    ctx = SimpleNamespace(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                          workdir=workdir)
    warnings.counts.clear()
    probe_start = speed_probe_ms()
    try:
        outcome = module.run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    machine = machine_metadata(ROOT, args.seed)
    machine["speed_probe_ms"] = [probe_start, speed_probe_ms()]

    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": name,
        "machine": machine,
        "seconds": args.seconds,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "problems": outcome["problems"][:50],
        "warnings": dict(warnings.counts),
        "extra": outcome["extra"],
    }
    if args.trace:
        tracer = outcome.pop("tracer")
        counts = outcome.pop("counts")
        record["layers"] = {k: v[0] for k, v in outcome["layers"].items()}
        # the bases of the ratios that the span summary does not hold
        record["bases"] = {"slots": counts.slots, "placeholders": counts.placeholders,
                           "distinct_stemmed_tokens": len(counts.stemmed)}
        record["layer_summary"] = {
            n: {k: row[k] for k in ("calls", "total_ms", "self_ms")}
            for n, row in sorted(tracer.by_name().items())}
        tracer.write_jsonl(OUT / f"{name}-seed{args.seed}.spans.jsonl")
    else:
        record["named"] = {k: {"value": v, "unit": u} for k, (v, u) in outcome["named"].items()}
        record["end_to_end"] = {k: v for k, (v, _) in outcome["e2e"].items()}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2, default=str),
                                      encoding="utf-8")
    return outcome, record


def _print_lines(name: str, outcome: dict, record: dict) -> None:
    print(f"# {name}: machine {json.dumps(record['machine'])}")
    rows = outcome["layers"] if "layers" in outcome else outcome["named"]
    for metric, (value, unit) in rows.items():
        print(f"{name:9s} {metric:42s} {value:14.6g} {unit}")
    print(f"{name:9s} attempted {outcome['attempted']} failed {outcome['failed']}")
    for problem in outcome["problems"][:10]:
        print(f"{name:9s} FAILED {problem}")


def main(argv=None) -> int:
    args = _parse(argv)
    _import_package()
    warnings = _WarningCounter()
    package_log = logging.getLogger("artdesc")
    package_log.addHandler(warnings)
    package_log.propagate = False
    OUT.mkdir(exist_ok=True)

    kind = "per_layer" if args.trace else "end_to_end"
    declared = _declared(kind)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        outcome, record = _run_workload(name, args, warnings)
        _print_lines(name, outcome, record)
        attempted += outcome["attempted"]
        failed += outcome["failed"]
        values = _metrics_json(outcome["layers"] if args.trace else outcome["e2e"], declared)
        if len(names) == 1:
            metrics = values
        else:
            metrics.update({f"{name}/{k}": v for k, v in values.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
