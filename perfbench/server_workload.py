"""The ``server-mix`` workload: two closed-loop HTTP clients against one
``repro serve --workers 2`` on a fresh store.

Each client takes the next job from a shared seeded sequence, sends
``POST /jobs``, polls ``GET /jobs/{id}`` until the job ends and fetches
``GET /jobs/{id}/result``.  The sequence repeats rounds of six cache-miss
templates (apriori, dhp and fp_growth mines, c45 and sliq classifies, a
kmeans cluster) and two exact resubmissions of completed jobs, which the
result cache answers.  A miss submits a fresh byte variant of its
template's dataset (see :func:`inputs.write_variant`), so its result is
the template's result byte for byte and one in-process reference per
template verifies every miss.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import shutil
import signal
import subprocess
import threading
import time
from typing import Any, Dict, List, Optional

import harness
import inputs

CLIENTS = 2
POLL_INTERVAL = 0.01
BOOT_TIMEOUT = 60.0
JOB_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
TERMINAL = ("done", "failed", "cancelled", "poisoned")
HIT = "cache-hit"

#: template -> (kind, algorithm, dataset index, params).  Datasets are
#: three baskets, one Agrawal table and one blob table.
TEMPLATES = {
    "mine-apriori": ("mine", "apriori", 0, {"min_support": 0.025}),
    "mine-dhp-rules": ("mine", "dhp", 1,
                       {"min_support": 0.02, "min_confidence": 0.6}),
    "mine-fp_growth-rules": ("mine", "fp_growth", 2,
                             {"min_support": 0.01, "min_confidence": 0.5}),
    "classify-c45": ("classify", "c45", 3, {"target": "group"}),
    "classify-sliq": ("classify", "sliq", 3, {"target": "group"}),
    "cluster-kmeans": ("cluster", "kmeans", 4, {"k": 4}),
}
ROUND = list(TEMPLATES) + [HIT, HIT]


def http_call(port: int, method: str, path: str,
              body: Optional[bytes] = None):
    """One request on a fresh connection: ``(status, body, start, end)``."""
    start = time.monotonic()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=JOB_TIMEOUT)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        data = response.read()
    finally:
        conn.close()
    return response.status, data, start, time.monotonic()


class Server:
    """One ``repro serve`` process on its own store directory."""

    def __init__(self, rc, tag: str) -> None:
        self.rc = rc
        self.rss_mb = 0.0
        self.store = os.path.join(rc.workdir, f"store-{tag}")
        self.log_path = os.path.join(rc.workdir, f"server-{tag}.log")
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [rc.python, "-m", "repro.cli", "serve", "--store", self.store,
                 "--port", "0", "--workers", "2"],
                env=rc.env, cwd=rc.workdir, stdout=log,
                stderr=subprocess.STDOUT, start_new_session=True)
        rc.leaks.sessions.add(self.proc.pid)
        self.port = self._wait_ready()

    def _wait_ready(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT
        port = None
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            if port is None:
                with open(self.log_path) as handle:
                    for line in handle:
                        if line.startswith("repro-server listening"):
                            port = int(line.split("port=")[1].split()[0])
            if port is not None:
                try:
                    if http_call(port, "GET", "/healthz")[0] == 200:
                        return port
                except OSError:
                    pass
            time.sleep(0.005)
        self.stop()
        with open(self.log_path) as handle:
            raise RuntimeError(f"server did not come up: {handle.read()[-500:]}")

    def healthz(self) -> Dict[str, Any]:
        return json.loads(http_call(self.port, "GET", "/healthz")[1])

    def stop(self) -> None:
        """Drain and stop the server; records its peak resident size."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            _code, self.rss_mb = harness.reap(self.proc, STOP_TIMEOUT)

    def store_bytes(self) -> int:
        total = 0
        for dirpath, _dirs, files in os.walk(self.store):
            for name in files:
                try:
                    total += os.path.getsize(os.path.join(dirpath, name))
                except OSError:
                    pass
        return total


class JobSequence:
    """The seeded job stream both clients draw from."""

    def __init__(self, seed: int) -> None:
        self.rng = inputs.seeded_rng(seed, "server-sequence")
        self.lock = threading.Lock()
        self.pending: List[str] = []
        self.completed: List[Dict[str, Any]] = []
        self.variants: Dict[str, int] = {name: 0 for name in TEMPLATES}

    def next(self):
        """``(template, variant number)`` for a miss, or ``(HIT, op)``."""
        with self.lock:
            while True:
                if not self.pending:
                    self.pending = list(ROUND)
                    self.rng.shuffle(self.pending)
                item = self.pending.pop()
                if item != HIT:
                    self.variants[item] += 1
                    return item, self.variants[item] - 1
                if self.completed:
                    pick = int(self.rng.integers(len(self.completed)))
                    return HIT, self.completed[pick]

    def done(self, op: Dict[str, Any]) -> None:
        with self.lock:
            self.completed.append(op)


class ServerMix:
    """Set-up, client loop, verification and metrics of ``server-mix``."""

    name = "server-mix"

    def __init__(self, rc) -> None:
        self.rc = rc
        self.datasets: List[inputs.Dataset] = []
        self.server: Optional[Server] = None
        self.servers: List[Server] = []
        self.health: Dict[str, Any] = {}
        self.store_bytes = 0
        self.input_props: Dict[str, Any] = {}
        self.first_variant: Dict[str, str] = {}

    # -- set-up ---------------------------------------------------------
    def setup(self) -> float:
        """Generate the inputs and boot a server on a fresh store; returns
        generation time plus boot time until ``/healthz`` answers."""
        seconds, self.datasets = inputs.generate_fresh(self.rc, self.name)
        start = time.monotonic()
        self.server = Server(self.rc, str(len(self.servers)))
        self.servers.append(self.server)
        return seconds + time.monotonic() - start

    def discard(self) -> None:
        """Stop a server booted only to time the set-up."""
        self.server.stop()
        shutil.rmtree(self.server.store, ignore_errors=True)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()

    # -- the loop -------------------------------------------------------
    def measure(self) -> List[Dict[str, Any]]:
        rc = self.rc
        os.makedirs(os.path.join(rc.workdir, "variants"), exist_ok=True)
        sequence = JobSequence(rc.seed)
        ops: List[Dict[str, Any]] = []
        deadline = time.monotonic() + rc.seconds
        threads = [threading.Thread(target=self._client,
                                    args=(c, sequence, deadline, ops))
                   for c in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.health = self.server.healthz()
        self.server.stop()
        self.store_bytes = self.server.store_bytes()
        return ops

    def _client(self, client, sequence, deadline, ops) -> None:
        count = 0
        while time.monotonic() < deadline:
            template, arg = sequence.next()
            op_id = f"c{client}-{count}"
            traced = self.rc.trace and count % 2 == 1
            if template == HIT:
                submission = arg["submission"]
                op = {"template": arg["template"], "original": arg["id"]}
            else:
                submission = self._miss_submission(template, arg)
                op = {"template": template}
            op.update(id=op_id, traced=traced)
            try:
                self._run_job(op, submission)
            except Exception as exc:  # noqa: BLE001 - the client keeps going
                op["error"] = f"{type(exc).__name__}: {exc}"
            ops.append(op)
            if template != HIT and op.get("error") is None:
                sequence.done(op)
            count += 1

    def _miss_submission(self, template: str, n: int) -> Dict[str, Any]:
        kind, algorithm, index, params = TEMPLATES[template]
        source = self.datasets[index]
        ext = os.path.splitext(source.path)[1]
        path = os.path.join(self.rc.workdir, "variants", f"{template}-{n}{ext}")
        inputs.write_variant(source, path,
                             inputs.seeded_rng(self.rc.seed, f"{template}-{n}"))
        self.first_variant.setdefault(template, path)
        return {"kind": kind, "algorithm": algorithm, "dataset": path,
                "params": params}

    def _run_job(self, op: Dict[str, Any], submission: Dict[str, Any]) -> None:
        rc, port = self.rc, self.server.port
        op["submission"] = submission
        calls = []
        status, body, s, e = http_call(port, "POST", "/jobs",
                                       json.dumps(submission).encode())
        op["start"] = s
        calls.append(("server.api.submit", s, e))
        if status not in (200, 202):
            raise ValueError(f"POST /jobs answered {status}: {body[:200]!r}")
        record = json.loads(body)
        job_id, state = record["job_id"], record["state"]
        op["cache_hit"] = bool(record.get("cache_hit"))
        op["job_id"] = job_id
        give_up = s + JOB_TIMEOUT
        while state not in TERMINAL and time.monotonic() < give_up:
            time.sleep(POLL_INTERVAL)
            status, body, ps, pe = http_call(port, "GET", f"/jobs/{job_id}")
            calls.append(("server.api.poll", ps, pe))
            record = json.loads(body)
            state = record["state"]
        if state != "done":
            raise ValueError(f"job {job_id} ended {state}: {record.get('error')}")
        status, data, rs, re_ = http_call(port, "GET", f"/jobs/{job_id}/result")
        calls.append(("server.api.result", rs, re_))
        op["end"] = re_
        op["wall"] = re_ - s
        op["polls"] = sum(1 for c in calls if c[0] == "server.api.poll")
        if status != 200:
            raise ValueError(f"GET result answered {status}")
        if rc.inject_corruption and op["id"] == "c0-0":
            data = data[:-2] + bytes([data[-2] ^ 1]) + data[-1:]
        op["bytes"] = len(data)
        op["digest"] = hashlib.sha256(data).hexdigest()
        if rc.trace:
            root = rc.tracer.add(op["id"], "op.job", s, re_)
            for name, cs, ce in calls:
                rc.tracer.add(op["id"], name, cs, ce, parent=root["id"])
            op["root"] = root["id"]
            if op["traced"]:
                self._server_spans(op)
        op["error"] = None

    def _server_spans(self, op: Dict[str, Any]) -> None:
        """Child spans from the job's own event log timestamps."""
        events = json.loads(http_call(
            self.server.port, "GET", f"/jobs/{op['job_id']}/events")[1])["events"]
        at: Dict[str, List[float]] = {}
        for event in events:
            at.setdefault(event["phase"], []).append(event["at"])
        if "submitted" not in at or "done" not in at:
            return  # the done event can land just after the state flips
        tracer, op_id = self.rc.tracer, op["id"]
        root = tracer.add(op_id, "server.job", at["submitted"][0], at["done"][-1])
        if "running" not in at:
            return  # answered from the cache: nothing ran
        running = at["running"][-1]
        finals = at.get("finalize", [])
        tracer.add(op_id, "server.scheduler.queue_wait", at["submitted"][0],
                   running, parent=root["id"])
        run_end = finals[0] if finals else at["done"][-1]
        tracer.add(op_id, "server.scheduler.run", running, run_end,
                   parent=root["id"])
        if "rules" in at and len(finals) > 1:
            tracer.add(op_id, "server.scheduler.rules", at["rules"][-1],
                       finals[-1], parent=root["id"])
        if finals:
            tracer.add(op_id, "server.store.finalize", finals[-1],
                       at["done"][-1], parent=root["id"])

    # -- verification ---------------------------------------------------
    def build_references(self) -> None:
        from repro.server.scheduler import canonical_result_bytes, execute_job

        self.expected: Dict[str, str] = {}
        props: Dict[str, Any] = {}
        for template, path in self.first_variant.items():
            kind, algorithm, _index, params = TEMPLATES[template]
            payload = execute_job(kind, path, algorithm, params)
            data = canonical_result_bytes(payload)
            self.expected[template] = hashlib.sha256(data).hexdigest()
            entry = {"result_bytes": len(data)}
            if kind == "mine":
                entry["itemsets"] = payload["n_itemsets"]
                entry["rules"] = len(payload.get("rules", []))
            props[template] = entry
        self.input_props = {"templates": props}

    def verify(self, ops: List[Dict[str, Any]]) -> None:
        """Each miss equals its template's reference bytes; each cache hit
        equals the bytes of the job it resubmitted."""
        by_id = {op["id"]: op for op in ops}
        for op in ops:
            if op.get("error") is not None:
                op["ok"] = False
                continue
            if "original" in op:
                want = by_id[op["original"]]["digest"]
            else:
                want = self.expected[op["template"]]
            op["ok"] = op["digest"] == want
            if not op["ok"]:
                op["error"] = "result bytes differ from the reference"

    # -- metrics --------------------------------------------------------
    def end_to_end(self, ops) -> Dict[str, Dict[str, Any]]:
        """Latency per template (misses) and for cache hits."""
        out = {}
        for kind in list(TEMPLATES) + [HIT]:
            walls = [op["wall"] for op in ops if op["ok"] and not op["traced"]
                     and self._kind(op) == kind]
            out[kind] = harness.summary(walls)
        return out

    def peak_rss_mb(self, ops) -> float:
        """Largest peak resident size of any server, with its workers."""
        return max((server.rss_mb for server in self.servers), default=0.0)

    @staticmethod
    def _kind(op) -> str:
        return HIT if op.get("cache_hit") else op["template"]

    def named(self, ops) -> Dict[str, Dict[str, Any]]:
        """The job (cache-miss) and cache-hit latency series."""
        misses = [op["wall"] for op in ops if op["ok"] and not op["traced"]
                  and not op.get("cache_hit")]
        hits = [op["wall"] for op in ops if op["ok"] and not op["traced"]
                and op.get("cache_hit")]
        return {"job": harness.summary(misses),
                "cache_hit": harness.summary(hits)}

    def layers(self, ops) -> Dict[str, float]:
        by_op = self.rc.tracer.by_op()
        durations: Dict[str, List[float]] = {}
        for op in ops:
            if not op["ok"]:
                continue
            for span in by_op.get(op["id"], []):
                if span["parent"] is not None:
                    durations.setdefault(span["name"], []).append(
                        span["end"] - span["start"])
        med = {name: harness.median(v) for name, v in durations.items()}
        good = [op for op in ops if op["ok"]]
        misses = [op for op in good if not op.get("cache_hit")]
        served = sum(op["bytes"] for op in good)
        cache = self.health.get("cache", {})
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        ratios = []
        for kind in list(TEMPLATES) + [HIT]:
            traced = [op["wall"] for op in good
                      if op["traced"] and self._kind(op) == kind]
            plain = [op["wall"] for op in good
                     if not op["traced"] and self._kind(op) == kind]
            if traced and plain:
                ratios.append(harness.median(traced) / harness.median(plain))
        return {
            "server.api.submit_s": med.get("server.api.submit", 0.0),
            "server.api.poll_s": med.get("server.api.poll", 0.0),
            "server.api.polls_per_job":
                sum(op["polls"] for op in misses) / len(misses) if misses else 0.0,
            "server.api.result_s": med.get("server.api.result", 0.0),
            "server.store.result_bytes": served / len(good) if good else 0.0,
            "server.scheduler.queue_wait_s":
                med.get("server.scheduler.queue_wait", 0.0),
            "server.scheduler.run_s": med.get("server.scheduler.run", 0.0),
            "server.scheduler.rules_s": med.get("server.scheduler.rules", 0.0),
            "server.store.finalize_s": med.get("server.store.finalize", 0.0),
            "server.store.bytes_per_result_byte":
                self.store_bytes / served if served else 0.0,
            "server.cache.hit_ratio":
                cache.get("hits", 0) / lookups if lookups else 0.0,
            "trace.overhead_ratio":
                harness.geomean(ratios) - 1.0 if ratios else 0.0,
        }
