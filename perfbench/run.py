"""End-to-end benchmark of ``repro``: CLI processes and job-server HTTP.

Run from the root of a repro checkout::

    python3 perfbench/run.py --workload mine-cli --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/workloads.json`` for sizes, loop types and
which layer metric should move which end-to-end metric):

* ``mine-cli``   -- ``repro mine`` with the partition miner, 2 jobs;
* ``table-cli``  -- ``repro classify`` (c45) and ``repro cluster``
  (kmeans), alternating;
* ``server-mix`` -- two HTTP clients against ``repro serve``.

The program only ever sees generated files and HTTP requests.  Inputs
come from ``--seed``; every operation's output is checked against an
in-process reference run.  With ``--trace 0`` the last stdout line is a
JSON object with the end-to-end metrics named in ``BENCHMARK.json``;
with ``--trace 1`` a separate traced run reports the per-layer metrics.
Earlier stdout lines are the human-readable report, including the
per-command latencies with their sample counts; the full report, with
every span of a traced run, is written under ``.perfbench_out/``.
``python3 perfbench/selftest.py`` runs the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from typing import Any, Dict, List

import harness

SETUP_REPEATS = 5

#: the per-command latency series each workload reports (as
#: ``<name>_p50_s`` and ``<name>_tail_s``), keys of its ``named()``.
NAMED_SERIES = {
    "mine-cli": ("mine",),
    "table-cli": ("classify", "cluster"),
    "server-mix": ("job", "cache_hit"),
}


class RunContext:
    """What every workload needs to know about this run."""

    def __init__(self, root: str, args: argparse.Namespace) -> None:
        self.root = root
        self.bench_dir = os.path.dirname(os.path.abspath(__file__))
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.scale = args.scale
        self.inject_corruption = args.inject_corruption
        self.python = sys.executable
        self.workdir = os.path.join(
            root, ".perfbench_run",
            f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
        self.tmpdir = os.path.join(self.workdir, "tmp")
        os.makedirs(self.tmpdir)
        self.env = harness.child_env(root, self.tmpdir)
        self.tracer = harness.Tracer()
        self.leaks = harness.LeakGuard(self.tmpdir)


def make_workload(name: str, rc: RunContext):
    if name == "server-mix":
        from server_workload import ServerMix

        return ServerMix(rc)
    from cli_workloads import MineCli, TableCli

    return {"mine-cli": MineCli, "table-cli": TableCli}[name](rc)


def corrupt(ops: List[Dict[str, Any]]) -> None:
    """Change one digit of the first CLI output (self-test hook)."""
    for op in ops:
        text = op.get("output")
        if text:
            for i, ch in enumerate(text):
                if ch.isdigit():
                    op["output"] = text[:i] + str((int(ch) + 1) % 10) + text[i + 1:]
                    return


def trace_check(rc: RunContext) -> Dict[str, Any]:
    """Self times of every span tree must add up to its root's duration."""
    worst, violations, trees = 0.0, 0, 0
    for spans in rc.tracer.by_op().values():
        for root in (s for s in spans if s["parent"] is None):
            trees += 1
            error = harness.sum_error(spans, root["id"])
            worst = max(worst, error)
            if error > harness.sum_tolerance(root["end"] - root["start"]):
                violations += 1
    return {"trees": trees, "max_error_s": worst, "violations": violations,
            "tolerance": f"{harness.SUM_TOLERANCE_ABS}s + "
                         f"{harness.SUM_TOLERANCE_REL:g} x duration"}


def execute(rc: RunContext, workload, spec: Dict[str, Any],
            name: str) -> Dict[str, Any]:
    report: Dict[str, Any] = {"workload": name, "seed": rc.seed,
                              "seconds": rc.seconds, "trace": int(rc.trace),
                              "scale": rc.scale,
                              "host": harness.host_record(rc.root)}
    setup_times = []
    for i in range(SETUP_REPEATS):
        if i:
            workload.discard()
        setup_times.append(workload.setup())
    report["setup_times_s"] = setup_times
    ops = workload.measure()
    workload.close()
    workload.build_references()
    if rc.inject_corruption and name != "server-mix":
        corrupt(ops)
    workload.verify(ops)
    report["inputs"] = {"datasets": [d.describe() for d in workload.datasets],
                        **workload.input_props}

    good = [op for op in ops if op["ok"]]
    attempted, failed = len(ops), len(ops) - len(good)
    span = (max(op["end"] for op in good) - min(op["start"] for op in good)
            if good else 0.0)
    series = workload.end_to_end(ops)
    named = workload.named(ops)
    report["series"] = series
    report["named"] = {key: named[key] for key in NAMED_SERIES[name]}
    values = {
        "setup_s": harness.median(setup_times),
        "op_p50_s": harness.geomean(s["p50"] for s in series.values()
                                    if s["n"]),
        "ops_per_s": len(good) / span if span else 0.0,
        "peak_rss_mb": workload.peak_rss_mb(ops),
        "error_rate": failed / attempted if attempted else 1.0,
    }
    if rc.trace:
        values.update(workload.layers(ops))
        report["trace_check"] = trace_check(rc)
        report["spans"] = rc.tracer.spans
    report["errors"] = [f"{op['id']}: {op['error']}"
                        for op in ops if not op["ok"]][:20]
    report["ops"] = [{k: op.get(k) for k in
                      ("id", "kind", "template", "traced", "wall", "ok")}
                     for op in ops]
    report["values"] = values
    section = "per_layer" if rc.trace else "end_to_end"
    metrics = {}
    for entry in spec[section]:
        if entry["name"] not in values and not rc.trace:
            raise RuntimeError(f"no value for metric {entry['name']}")
        metrics[entry["name"]] = {"value": values.get(entry["name"], 0.0),
                                  "unit": entry["unit"]}
    report["result"] = {"correct": bool(good) and failed == 0,
                        "attempted": attempted, "failed": failed,
                        "metrics": metrics}
    return report


def print_report(report: Dict[str, Any]) -> None:
    host = report["host"]
    print(f"perfbench workload={report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']} "
          f"scale={report['scale']}")
    print(f"host n_cpus={host['n_cpus']} python={host['python']} "
          f"numpy={host['numpy']} commit={host['commit']} "
          f"load_before={host['load_before']} "
          f"load_after={host['load_after']} "
          f"steal_share={host['steal_share']:.3f} "
          f"overloaded={'yes' if host['overloaded'] else 'no'}")
    for dataset in report["inputs"]["datasets"]:
        props = " ".join(f"{k}={v}" for k, v in dataset.items()
                         if k not in ("name", "path"))
        print(f"input {dataset['name']} {props}")
    for key, value in report["inputs"].items():
        if key != "datasets":
            print(f"input {key} {json.dumps(value, sort_keys=True)}")
    if "trace_check" in report:
        for name, metric in report["result"]["metrics"].items():
            print(f"layer {name} {metric['value']:.6g} {metric['unit']}")
        check = report["trace_check"]
        print(f"trace sum-check trees={check['trees']} "
              f"max_error_s={check['max_error_s']:.2e} "
              f"violations={check['violations']} "
              f"tolerance={check['tolerance']}")
    else:
        print_end_to_end(report)
    if report["leaks"]:
        print("leaks " + "; ".join(report["leaks"]))
    for error in report["errors"]:
        print(f"error {error}")


def print_end_to_end(report: Dict[str, Any]) -> None:
    values = report["values"]
    n = len(report["ops"])
    print(f"metric setup_s {values['setup_s']:.4f} s "
          f"n={len(report['setup_times_s'])}")
    for name, s in report["named"].items():
        print(f"metric {name}_p50_s {s['p50']:.4f} s n={s['n']}")
        if name == "cache_hit":
            continue
        if s["tail"] is None:
            print(f"metric {name}_tail_s n/a s n={s['n']} "
                  f"(a tail needs >= {2 * harness.TAIL_BEYOND} samples)")
        else:
            print(f"metric {name}_tail_s {s['tail']:.4f} s n={s['n']} "
                  f"percentile=p{s['tail_pct']}")
    print(f"metric op_p50_s {values['op_p50_s']:.4f} s n={n} "
          f"(geometric mean of per-kind medians: "
          + ", ".join(f"{k}={s['p50']:.3f}/n={s['n']}"
                      for k, s in report["series"].items()) + ")")
    print(f"metric ops_per_s {values['ops_per_s']:.4f} 1/s n={n}")
    print(f"metric error_rate {values['error_rate']:.4f} ratio n={n}")
    print(f"metric peak_rss_mb {values['peak_rss_mb']:.1f} MB n={n}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(NAMED_SERIES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full",
                        help="input sizes; 'small' is for the self-tests")
    parser.add_argument("--inject-corruption", action="store_true",
                        help="corrupt one output before verification "
                             "(self-test of the checks)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        harness.log(f"perfbench: {root} holds no src/repro; run from the "
                    "root of a repro checkout")
        return 2
    with open(spec_path) as handle:
        spec = json.load(handle)
    sys.path.insert(0, os.path.join(root, "src"))
    rc = RunContext(root, args)
    workload = make_workload(args.workload, rc)
    try:
        report = execute(rc, workload, spec, args.workload)
    finally:
        workload.close()
        leaks = rc.leaks.check()
        shutil.rmtree(rc.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(rc.workdir))
        except OSError:
            pass
    report["leaks"] = leaks
    if leaks:
        report["result"]["correct"] = False
    host = report["host"]
    host["load_after"] = round(os.getloadavg()[0], 2)
    host["steal_share"] = harness.steal_share(host.pop("cpu_times"))
    host["overloaded"] = max(host["load_before"],
                             host["load_after"]) > host["n_cpus"]
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=1, default=str)
    print_report(report)
    print(f"report {os.path.relpath(out_path, root)}")
    print(json.dumps(report["result"]), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
