"""The two CLI workloads: ``mine-cli`` and ``table-cli``.

Both are closed loops with one client: the next ``repro`` process is
spawned when the previous one exits.  Untraced runs spawn the real CLI
(``python3 -m repro.cli``).  Traced runs alternate the real CLI with
``replay.py`` re-running the same command span by span, so the run
measures both the layer split and the tracing overhead.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List

import harness
import inputs

OP_TIMEOUT = 60.0


class CliWorkload:
    """Shared loop, verification and metrics of the CLI workloads.

    Subclasses name their operation ``kinds`` and give each one's
    ``argv``, the in-process references and the layer metrics.
    """

    name = ""
    kinds: tuple = ()

    def __init__(self, rc) -> None:
        self.rc = rc
        self.datasets: List[inputs.Dataset] = []
        self.expected: Dict[str, str] = {}
        self.input_props: Dict[str, Any] = {}

    # -- set-up ---------------------------------------------------------
    def setup(self) -> float:
        """Generate the inputs; returns the set-up time."""
        seconds, self.datasets = inputs.generate_fresh(self.rc, self.name)
        return seconds

    def discard(self) -> None:
        """Nothing to undo: the next set-up rewrites the same files."""

    def close(self) -> None:
        """Nothing outlives an operation."""

    # -- commands -------------------------------------------------------
    def argv(self, kind: str) -> List[str]:
        raise NotImplementedError

    def plan(self) -> List[tuple]:
        """``(kind, traced, extra argv)`` entries the loop cycles over."""
        untraced = [(kind, False, []) for kind in self.kinds]
        if not self.rc.trace:
            return untraced
        cycle = []
        for kind in self.kinds:
            cycle += [(kind, False, []), (kind, True, [])]
        return cycle

    def measure(self) -> List[Dict[str, Any]]:
        rc = self.rc
        cycle = self.plan()
        ops: List[Dict[str, Any]] = []
        deadline = time.monotonic() + rc.seconds
        index = 0
        while time.monotonic() < deadline:
            kind, traced, extra = cycle[index % len(cycle)]
            ops.append(self._run_one(kind, traced, extra, index))
            index += 1
        return ops

    def _run_one(self, kind, traced, extra, index) -> Dict[str, Any]:
        rc = self.rc
        op_id = f"op{index}"
        command = kind.split(":")[0]
        if traced:
            spans_out = os.path.join(rc.workdir, f"spans-{index}.json")
            argv = [rc.python, os.path.join(rc.bench_dir, "replay.py"),
                    spans_out, command]
            if command != "pool-probe":
                argv += self.argv(command)[1:]
            argv += extra
        else:
            argv = [rc.python, "-m", "repro.cli", *self.argv(command), *extra]
        start, end, code, out, err, rss_mb = harness.run_process(
            argv, rc.env, rc.workdir, OP_TIMEOUT, rc.leaks.sessions)
        op = {"id": op_id, "kind": kind, "traced": traced, "start": start,
              "end": end, "wall": end - start, "code": code, "output": out,
              "rss_mb": rss_mb, "error": err.strip()[-500:] if code else None}
        if traced:
            root = rc.tracer.add(op_id, f"op.{command}", start, end)
            try:
                with open(spans_out) as handle:
                    payload = json.load(handle)
                os.unlink(spans_out)
            except (OSError, ValueError):
                payload = {"spans": [], "counts": {}}
                op["error"] = op["error"] or "replayer wrote no spans"
            for name, s, e in payload["spans"]:
                rc.tracer.add(op_id, name, s, e, parent=root["id"])
            op["counts"] = payload["counts"]
            op["root"] = root["id"]
        return op

    # -- verification ---------------------------------------------------
    def verify(self, ops: List[Dict[str, Any]]) -> None:
        """Set ``op["ok"]``: exit 0 and stdout equal to the reference."""
        for op in ops:
            command = op["kind"].split(":")[0]
            expected = "" if command == "pool-probe" else self.expected[command]
            op["ok"] = (op["code"] == 0 and op["error"] is None
                        and op["output"] == expected)
            if not op["ok"] and op["error"] is None:
                op["error"] = "output differs from the in-process reference"

    # -- metrics --------------------------------------------------------
    def end_to_end(self, ops) -> Dict[str, Dict[str, Any]]:
        """Per-kind latency summaries of the verified untraced ops."""
        out = {}
        for kind in self.kinds:
            walls = [op["wall"] for op in ops
                     if op["kind"] == kind and op["ok"] and not op["traced"]]
            out[kind] = harness.summary(walls)
        return out

    named = end_to_end

    @staticmethod
    def peak_rss_mb(ops) -> float:
        """Largest peak resident size of any ``repro`` process."""
        return max((op["rss_mb"] for op in ops), default=0.0)

    def layers(self, ops) -> Dict[str, float]:
        """Per-layer metrics from the traced ops (medians over ops)."""
        rc = self.rc
        by_op = rc.tracer.by_op()
        spans: Dict[str, List[float]] = {}
        residual: List[float] = []
        counts: Dict[str, List[float]] = {}
        traced_walls: Dict[str, List[float]] = {}
        plain_walls: Dict[str, List[float]] = {}
        for op in ops:
            if not op["ok"]:
                continue
            walls = traced_walls if op["traced"] else plain_walls
            walls.setdefault(op["kind"], []).append(op["wall"])
            if not op["traced"]:
                continue
            tree = by_op.get(op["id"], [])
            if op["kind"] in self.kinds:
                residual.append(harness.self_times(tree)[op["root"]])
            for span in tree:
                if span["parent"] is None:
                    continue
                key = span["name"]
                if op["kind"] == "mine:serial":
                    key += ".serial"
                spans.setdefault(key, []).append(span["end"] - span["start"])
            for name, value in op.get("counts", {}).items():
                if op["kind"] == "mine":
                    counts.setdefault(name, []).append(value)
            if op["kind"] == "cluster":
                counts.setdefault("n_iter", []).append(
                    op["counts"].get("n_iter", 0))
        med = {key: harness.median(vals) for key, vals in spans.items()}
        layer = {
            "cli.import_s": med.get("cli.import", 0.0),
            "cli.residual_s": harness.median(residual),
        }
        layer.update(self.layer_values(med, counts))
        ratios = [harness.median(traced_walls[k]) / harness.median(plain_walls[k])
                  for k in self.kinds
                  if traced_walls.get(k) and plain_walls.get(k)]
        layer["trace.overhead_ratio"] = (
            harness.geomean(ratios) - 1.0 if ratios else 0.0)
        return layer

    def layer_values(self, med, counts) -> Dict[str, float]:
        raise NotImplementedError


class MineCli(CliWorkload):
    """``repro mine BASKET --miner partition --jobs 2`` back to back."""

    name = "mine-cli"
    kinds = ("mine",)
    MIN_SUPPORT = {"full": 0.01, "small": 0.02}
    MIN_CONFIDENCE = 0.6

    def argv(self, kind):
        return ["mine", self.datasets[0].path, "--miner", "partition",
                "--jobs", "2", "--min-support",
                str(self.MIN_SUPPORT[self.rc.scale]), "--min-confidence",
                str(self.MIN_CONFIDENCE)]

    def plan(self):
        if not self.rc.trace:
            return super().plan()
        return [("mine", False, []), ("mine", True, []),
                ("mine:serial", True, ["--jobs", "1"]),
                ("pool-probe", True, [])]

    def build_references(self) -> None:
        text, n_itemsets, n_rules = inputs.reference_mine(
            self.datasets[0].path, self.MIN_SUPPORT[self.rc.scale],
            self.MIN_CONFIDENCE)
        self.expected["mine"] = text
        self.input_props = {"itemsets": n_itemsets, "rules": n_rules}

    def layer_values(self, med, counts):
        mine = med.get("associations.mine", 0.0)
        serial = med.get("associations.mine.serial", 0.0)
        rules_s = med.get("associations.rules", 0.0)
        n_rules = harness.median(counts.get("rules", []))
        return {
            "datasets.load_transactions_s":
                med.get("datasets.load_transactions", 0.0),
            "associations.mine_s": mine,
            "associations.mine_serial_s": serial,
            "associations.itemsets": harness.median(counts.get("itemsets", [])),
            "associations.passes": harness.median(counts.get("passes", [])),
            "associations.rules_s": rules_s,
            "associations.rules": n_rules,
            "associations.rules_per_s": n_rules / rules_s if rules_s else 0.0,
            "runtime.pool_spawn_s": med.get("runtime.pool_spawn", 0.0),
            "runtime.parallel_speedup": serial / mine if mine else 0.0,
            "runtime.n_cpus": os.cpu_count(),
        }


class TableCli(CliWorkload):
    """``repro classify`` (c45) and ``repro cluster`` (kmeans), alternating."""

    name = "table-cli"
    kinds = ("classify", "cluster")

    def argv(self, kind):
        if kind == "classify":
            return ["classify", self.datasets[0].path, "--target", "group"]
        return ["cluster", self.datasets[1].path, "--k", "3"]

    def build_references(self) -> None:
        self.expected["classify"] = inputs.reference_classify(
            self.datasets[0].path, "group")
        self.expected["cluster"] = inputs.reference_cluster(
            self.datasets[1].path, 3)

    def layer_values(self, med, counts):
        return {
            "datasets.load_table_s": med.get("datasets.load_table", 0.0),
            "preprocessing.split_s": med.get("preprocessing.split", 0.0),
            "classification.fit_s": med.get("classification.fit", 0.0),
            "classification.predict_s":
                med.get("classification.score", 0.0)
                + med.get("classification.predict", 0.0),
            "clustering.fit_s": med.get("clustering.fit", 0.0),
            "clustering.n_iter": harness.median(counts.get("n_iter", [])),
            "evaluation.silhouette_s": med.get("evaluation.silhouette", 0.0),
            "evaluation.report_s": med.get("evaluation.report", 0.0),
        }
