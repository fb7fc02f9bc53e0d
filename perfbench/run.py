"""The repository benchmark: one seeded workload, measured from outside.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``serve-http``, ``diagnose-stream``, ``voi-rank``, ``campaign``
(see README.md).  Each run starts the program in fresh interpreters:
three times to time set-up (the median is ``setup_s``), the last of
which goes on to the timed phase.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end figures with ``--trace 0``, the per-layer
figures with ``--trace 1``.  Lines before it give a fixed CPU probe
timed before and after the workload and the measured input shares.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import child  # noqa: E402
import figures  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("serve-http", "diagnose-stream", "voi-rank", "campaign")
SETUPS = 3
#: Seconds any one child may take to report READY, and to finish.
READY_TIMEOUT = 60.0
FINISH_TIMEOUT = 120.0
CLIENTS = 2


class BenchError(Exception):
    pass


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def cpu_probe() -> float:
    """Median ms of a fixed single-threaded job over five tries; its time
    tracks the machine's speed."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(400_000):
            total += i * i % 7
        times.append(1000.0 * (time.perf_counter() - t0))
    return statistics.median(times)


def start(cmd: List[str]) -> Tuple[subprocess.Popen, float]:
    """Start ``cmd``; return it with the time just before it started."""
    env = child_env()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    return proc, t0


def read_line(proc: subprocess.Popen, timeout: float) -> str:
    """One stdout line of ``proc``, or BenchError on timeout or exit."""
    box: List[str] = []
    reader = threading.Thread(target=lambda: box.append(proc.stdout.readline()),
                              daemon=True)
    reader.start()
    reader.join(timeout)
    if not box or not box[0]:
        raise BenchError(f"child {proc.args[1]} gave no output "
                         f"(exit {proc.poll()})")
    return box[0].strip()


def finish(proc: subprocess.Popen, timeout: float = FINISH_TIMEOUT) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child {proc.args[1]} timed out")
    if proc.returncode != 0:
        raise BenchError(f"child {proc.args[1]} exited {proc.returncode}")
    return out


# -- in-process workloads ----------------------------------------------------

def run_child(args) -> Tuple[List[float], dict]:
    script = os.path.join(HERE, "child.py")
    base = [sys.executable, script, args.workload, str(args.seed),
            str(args.seconds), str(args.trace)]
    setups: List[float] = []
    for i in range(SETUPS):
        last = i == SETUPS - 1
        proc, t0 = start(base + ([] if last else ["--setup-only"]))
        try:
            if read_line(proc, READY_TIMEOUT) != "READY":
                raise BenchError("child did not report READY")
            setups.append(time.perf_counter() - t0)
            out = finish(proc)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if not lines:
        raise BenchError("child printed no RESULT")
    return setups, json.loads(lines[-1][len("RESULT "):])


# -- serve-http ------------------------------------------------------------------

class Server:
    """The server child, driven over stdin."""

    def __init__(self, seed: int, trace: int, spans_path: str):
        script = os.path.join(HERE, "server.py")
        self.proc, t0 = start([sys.executable, script, str(seed),
                               str(trace), spans_path])
        try:
            line = read_line(self.proc, READY_TIMEOUT)
            if not line.startswith("PORT "):
                raise BenchError(f"server said {line!r}")
            self.port = int(line.split()[1])
            deadline = time.perf_counter() + READY_TIMEOUT
            while self.health() != 200:
                if time.perf_counter() > deadline:
                    raise BenchError("server never became healthy")
                time.sleep(0.002)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0

    def health(self) -> int:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
        try:
            conn.request("GET", "/health")
            resp = conn.getresponse()
            resp.read()
            return resp.status
        except OSError:
            return 0
        finally:
            conn.close()

    def cpu(self) -> float:
        self.proc.stdin.write("cpu\n")
        self.proc.stdin.flush()
        return float(json.loads(read_line(self.proc, 10.0))["cpu"])

    def stop(self) -> dict:
        self.proc.stdin.write("stop\n")
        self.proc.stdin.flush()
        out = finish(self.proc, 30.0)
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate()


class Client:
    """Closed loop: ``CLIENTS`` threads, each with its own connection,
    reused whenever the server keeps it open."""

    def __init__(self, port: int, catalogue, stream):
        self.port = port
        self.catalogue = catalogue
        self.stream = stream
        self.lock = threading.Lock()
        self.next = 0
        self.done = 0
        #: (catalogue index, status, body, seconds, request id)
        self.records: List[Tuple[int, int, bytes, float, str]] = []
        self.connects: List[float] = []

    def body(self, q) -> str:
        doc = {"target": q.target, "evidence": q.evidence}
        if q.error_budget >= 0.0:
            doc["error_budget"] = q.error_budget
        return json.dumps(doc)

    def worker(self, tid: int, stop_at: float) -> None:
        clock = time.perf_counter
        conn: Optional[http.client.HTTPConnection] = None
        records, connects = [], []
        n = 0
        while clock() < stop_at:
            with self.lock:
                i = self.next
                self.next += 1
            index = int(self.stream[i % len(self.stream)])
            body = self.body(self.catalogue[index])
            rid = f"c{tid}-{n}"
            n += 1
            t0 = clock()
            try:
                if conn is None:
                    conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                      timeout=30)
                    conn.connect()
                    connects.append(clock() - t0)
                conn.request("POST", "/query", body,
                             {"Content-Type": "application/json",
                              "X-Request-ID": rid})
                resp = conn.getresponse()
                data = resp.read()
                status = resp.status
                if resp.will_close:
                    conn.close()
                    conn = None
            except (OSError, http.client.HTTPException):
                status, data = 0, b""
                if conn is not None:
                    conn.close()
                conn = None
            records.append((index, status, data, clock() - t0, rid))
            with self.lock:
                self.done += 1
        if conn is not None:
            conn.close()
        with self.lock:
            self.records.extend(records)
            self.connects.extend(connects)


def check_serve(spec, catalogue, records) -> Tuple[int, int, Dict[str, int]]:
    """(failed, wrong, tiers): non-200, stale, exception and wrong
    answers fail; exact and cache answers must match the reference
    within 1e-9, approximate ones lie within 6x their estimated error
    and within their error budget."""
    ref = reference.FusionReference(spec)
    expected: Dict[int, Dict[str, float]] = {}
    failed = wrong = 0
    tiers: Dict[str, int] = {}
    for index, status, data, _, _ in records:
        if status != 200:
            failed += 1
            continue
        doc = json.loads(data)
        tier = doc["tier"]
        tiers[tier] = tiers.get(tier, 0) + 1
        if tier == "stale" or doc["stale"]:
            failed += 1
            continue
        q = catalogue[index]
        if index not in expected:
            expected[index] = ref.query(q.target, q.evidence)
        diff = reference.max_abs_diff(doc["posterior"], expected[index])
        if tier in ("exact", "cache"):
            bad = diff > 1e-9
        else:
            err = doc["estimated_error"]
            bad = err is None or diff > 6.0 * err or (
                q.error_budget >= 0.0 and err > q.error_budget)
        wrong += bad
        failed += bad
    return failed, wrong, tiers


def run_serve(args) -> Tuple[List[float], dict]:
    os.makedirs(child.OUT_DIR, exist_ok=True)
    spans_path = os.path.join(child.OUT_DIR, "spans-serve-http.jsonl")
    spec = inputs.fusion_spec(args.seed)
    catalogue = inputs.serve_catalogue(spec)
    stream = inputs.serve_stream(spec)
    setups: List[float] = []
    for i in range(SETUPS):
        server = Server(args.seed, args.trace, spans_path)
        try:
            setups.append(server.setup_s)
            if i < SETUPS - 1:
                server.stop()
                continue
            client = Client(server.port, catalogue, stream)
            t0 = time.perf_counter()
            stop_at = t0 + args.seconds
            marks = [(t0, server.cpu(), 0)]
            threads = [threading.Thread(target=client.worker,
                                        args=(tid, stop_at), daemon=True)
                       for tid in range(CLIENTS)]
            for th in threads:
                th.start()
            while time.perf_counter() < stop_at:
                time.sleep(min(1.0, max(0.0, stop_at - time.perf_counter())))
                with client.lock:
                    done = client.done
                marks.append((time.perf_counter(), server.cpu(), done))
            for th in threads:
                th.join(30.0)
                if th.is_alive():
                    raise BenchError("client thread did not finish")
            final = server.stop()
        finally:
            server.kill()
    records = client.records
    failed, wrong, tiers = check_serve(spec, catalogue, records)
    result = {"attempted": len(records), "failed": failed, "wrong": wrong,
              "e2e": figures.run_figures([r[3] for r in records], marks,
                                         final["peak_rss_mb"])}
    ok = sum(tiers.values()) or 1
    result["shares"] = {f"tier_{t}": n / ok for t, n in sorted(tiers.items())}
    result["shares"]["connects_per_request"] = \
        len(client.connects) / len(records)
    result["layers"] = {}
    if args.trace:
        result["layers"] = serve_layers(spans_path, client, records)
    return setups, result


def serve_layers(spans_path: str, client: Client, records) -> Dict[str, float]:
    spans, counts = tracer.read_jsonl(spans_path)
    by_rid = tracer.by_request([s for s in spans if s[1] is not None])
    rtt = {r[4]: r[3] for r in records if r[1] == 200}
    docs = [json.loads(r[2]) for r in records if r[1] == 200]
    http_self, submit, service_self, checkout, handoff, record = \
        [], [], [], [], [], []
    for rid, group in by_rid.items():
        subs = [s for s in group if s[0] == "service.submit"]
        if not subs or rid not in rtt:
            continue
        sub = subs[0]
        dur = sub[3] - sub[2]
        submit.append(1e6 * dur)
        http_self.append(1e6 * (rtt[rid] - dur))
        kids = [(s[2], s[3]) for s in group if s[0] != "service.submit"]
        service_self.append(1e6 * tracer.self_time((sub[2], sub[3]), kids))
        outs = [s for s in group if s[0] == "pool.checkout"]
        checkout += [1e6 * (s[3] - s[2]) for s in outs]
        queries = [s for s in group if s[0] == "engine.query"]
        if outs and queries:
            handoff.append(1e6 * (queries[0][2] - outs[0][3]))
        record.append(1e6 * sum(s[3] - s[2] for s in group
                                if s[0] in ("flight.record", "slo.record")))
    n = len(docs) or 1
    updates = sum(v for (name, rid), v in counts.items()
                  if name == "metric.update" and rid in rtt)
    tiers = [d["tier"] for d in docs]
    out = {
        "serving.http.self_us": tracer.median(http_self),
        "serving.http.connects_per_request": len(client.connects) / len(records),
        "serving.http.connect_us": 1e6 * tracer.median(client.connects),
        "serving.http.response_bytes": tracer.mean(
            [len(r[2]) for r in records if r[1] == 200]),
        "serving.service.submit_us": tracer.median(submit),
        "serving.service.self_us": tracer.median(service_self),
        "serving.service.attempts_per_request": tracer.mean(
            [len(d["attempts"]) for d in docs]),
        "serving.pool.checkout_us": tracer.median(checkout),
        "serving.pool.handoff_us": tracer.median(handoff),
        "telemetry.observe.record_us": tracer.median(record),
        "telemetry.metrics.updates_per_request": updates / n,
    }
    for tier in ("exact", "cache", "approximate", "stale"):
        out[f"serving.service.answers_{tier}"] = tiers.count(tier) / n
    log = tracer.SpanLog()
    log.spans = [s for s in spans if s[1] in rtt]
    out.update(child.engine_layers(log, [], len(records)))
    return out


# -- entry point -------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    probe_before = cpu_probe()
    try:
        if args.workload == "serve-http":
            setups, result = run_serve(args)
        else:
            setups, result = run_child(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    probe_after = cpu_probe()
    print(f"probe_ms before={probe_before:.2f} after={probe_after:.2f}")
    print("shares " + json.dumps(result.get("shares", {}), sort_keys=True))
    e2e = dict(result["e2e"], setup_s=statistics.median(setups))
    if args.trace:
        values = dict(result["layers"])
        values["trace.p50_ms"] = e2e["p50_ms"]
        values["trace.throughput"] = e2e["throughput"]
        names = [n for n, _, _ in figures.PER_LAYER]
    else:
        values = e2e
        names = [n for n, _, _ in figures.END_TO_END]
    correct = result["wrong"] == 0 and result.get("identical", True)
    print(json.dumps({"correct": bool(correct),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": figures.render(values, names)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
