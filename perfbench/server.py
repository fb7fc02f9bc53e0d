"""Server child of serve-http: the service over the fusion network on HTTP.

Usage (``run.py`` starts it)::

    python3 perfbench/server.py SEED TRACE SPANS_PATH

Runs ``InferenceService`` with its defaults behind ``ServiceHTTPServer``
on an ephemeral loopback port, prints ``PORT <n>``, then obeys one
command per stdin line: ``cpu`` prints this process's CPU seconds so
far, ``stop`` shuts the server down, writes the spans (TRACE=1) and
prints the peak RSS.  With TRACE=1 the program's public boundaries are
wrapped before the service is built; spans carry the request's
``X-Request-ID``.
"""

from __future__ import annotations

import json
import sys
import threading

import child
import inputs
from tracer import SpanLog


def install_serving_wrappers(log: SpanLog) -> None:
    from repro.serving.pool import EnginePool
    from repro.serving.service import InferenceService
    from repro.telemetry import metrics
    from repro.telemetry.observe import FlightRecorder, SLOEngine
    from repro.telemetry.tracing import current_request_id

    log.use_request_ids(current_request_id)
    child.install_engine_wrappers(log)
    log.wrap(InferenceService, "submit", "service.submit")
    log.wrap(EnginePool, "checkout", "pool.checkout")
    log.wrap(FlightRecorder, "record", "flight.record")
    log.wrap(SLOEngine, "record", "slo.record")
    for cls, attrs in ((metrics.Counter, ("inc",)),
                       (metrics.BoundCounter, ("inc",)),
                       (metrics.Gauge, ("set", "inc", "dec")),
                       (metrics.Histogram, ("observe",))):
        for attr in attrs:
            log.wrap_count(cls, attr, "metric.update")


def main(argv) -> int:
    seed, trace, spans_path = int(argv[0]), argv[1] == "1", argv[2]
    child.import_program()
    from repro.serving.http import ServiceHTTPServer
    from repro.serving.service import InferenceService

    log = SpanLog() if trace else None
    if log is not None:
        install_serving_wrappers(log)
    network = inputs.build_network(inputs.fusion_spec(seed))
    service = InferenceService(network)
    server = ServiceHTTPServer(service, ("127.0.0.1", 0))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"PORT {server.port}", flush=True)
    for line in sys.stdin:
        command = line.strip()
        if command == "cpu":
            print(json.dumps({"cpu": child._cpu()}), flush=True)
        elif command == "stop":
            break
    server.shutdown()
    thread.join(timeout=10)
    server.server_close()
    service.close()
    if log is not None:
        log.write_jsonl(spans_path)
    print(json.dumps({"peak_rss_mb": child._rss_mb()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
