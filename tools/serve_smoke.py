#!/usr/bin/env python3
"""End-to-end smoke test of the lookhd serving stack.

Round trip, in one process tree:

  1. write a deterministic two-class CSV (same pattern as
     tools/cli_test.cmake) and train a tiny model with lookhd_train,
  2. start lookhd_serve on ephemeral ports (``--port 0``), parsing
     the announced request/metrics ports from its stdout,
  3. drive it with lookhd_loadgen (``--quick`` by default here),
     pipelining requests with ``--burst`` so server-side batches
     actually fill,
  4. send one traced request over a raw socket (client-chosen
     128-bit trace id) and assert the response echoes the trace;
     when the build has observability on, additionally assert the
     request shows up in /debug/requests with a stage breakdown
     whose sum does not exceed the client-observed latency (+5%
     slack), that at least one latency bucket in /metrics carries
     an OpenMetrics exemplar, and that /debug/inflight and
     /debug/trace?ms=N answer sanely,
  5. scrape GET /metrics, lint it with
     validate_prometheus.check_text and assert the request counter
     is nonzero, the latency histogram has buckets, and the batched
     predict path was exercised (at least one batch of size > 1),
  6. scrape GET /metrics.json and assemble a ``lookhd-bench-v3``
     BENCH_serve_smoke.json (server-side latency quantiles + client
     QPS in `metrics`) into --out-dir, validated with
     validate_bench_json.check_file so tools/bench_compare.py can
     diff serve latency across commits once a baseline is pinned,
  7. profile phase: restart loadgen traffic in the background and
     scrape ``/debug/profile?seconds=2`` while the server is busy;
     the collapsed stacks must lint clean (validate_profile), fit
     the seconds x hz x threads CPU-time sampling bound, and show
     the kernel scoring path (``scoresBatch``/``similarityBatch``)
     in at least one hot frame; the speedscope flavor must parse
     and both must carry the right Content-Type (text/plain vs
     application/json). The collapsed profile lands in --out-dir
     for CI artifact upload. Skipped with a notice when the build
     answers 404 (profiler compiled out),
  8. SIGTERM the server and assert exit status 0 with the event log
     flushed (serve.start and serve.shutdown both present, every
     line valid JSON); with observability on, the slow-request log
     must hold the traced request as a valid JSON line,
  9. degraded phase: start a second, deliberately under-provisioned
     server (1 slow worker, queue capacity 4), burst far past queue
     capacity, and assert /healthz flips to 503 with a
     machine-readable reason, /debug/health agrees (both bodies are
     saved to --workdir for CI artifact upload), and readiness
     recovers to 200 once the queue drains and the overload hold
     expires,
 10. quantized phase: serve the same model with --precision float64
     and --precision int8, drive both with the same fixed query
     set, and assert the quantized predictions match the float ones
     query for query, serve.requests.quantized covers the whole set
     on the int8 server (and stays zero on the float one), and the
     build-info labels pin kernel and precision.

Usage:
    serve_smoke.py --train T --serve S --loadgen L
                   --workdir DIR --out-dir DIR [--quick]

Exit status: 0 on a clean round trip, 1 with a diagnostic otherwise.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import validate_bench_json  # noqa: E402
import validate_profile  # noqa: E402
import validate_prometheus  # noqa: E402

PORT_RE = re.compile(
    r"lookhd_serve: (listening|metrics) on 127\.0\.0\.1:(\d+)")
LOADGEN_RE = re.compile(
    r"loadgen: requests=(\d+) errors=(\d+) qps=([\d.]+) "
    r"p50_us=([\d.]+) p90_us=([\d.]+) p99_us=([\d.]+)")

FEATURES = 3

# Client-chosen trace id for the hand-rolled traced request; easy to
# spot in /debug/requests and the slow-request log.
TRACE_HEX = "deadbeefdeadbeefdeadbeefdeadbeef"
TRACE_REQ_ID = 424242

# Profile-phase sampling parameters. The bound check needs a busy-
# thread ceiling: 2 workers + 2 loadgen connection threads + metrics
# + sampler + main, rounded up for headroom (CPU-clock timers cannot
# oversample a thread, so a loose ceiling stays a real check).
PROFILE_SECONDS = 2
PROFILE_HZ = 199
PROFILE_MAX_BUSY_THREADS = 8

EXEMPLAR_BUCKET_RE = re.compile(
    r'_bucket\{[^}]*le="[^"]*"[^}]*\} \S+ '
    r'# \{trace_id="[0-9a-f]{32}"\} \S+')


class SmokeError(RuntimeError):
    pass


def write_csv(path: Path) -> None:
    """Deterministic two-class CSV, cli_test.cmake's pattern."""
    lines = []
    for i in range(200):
        cls = i % 2
        base = cls * 10
        f0 = base + i % 5
        f1 = 20 - base + i % 3
        f2 = i % 7
        lines.append(f"{f0}.5,{f1}.25,{f2}.0,{cls}\n")
    path.write_text("".join(lines), encoding="utf-8")


def run(cmd: list[str], what: str) -> str:
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SmokeError(
            f"{what} failed (exit {proc.returncode})\n"
            f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}")
    return proc.stdout


def wait_for_ports(proc: subprocess.Popen,
                   deadline_s: float = 30.0) -> tuple[int, int]:
    """Read the server's stdout until both ports are announced."""
    ports: dict[str, int] = {}
    deadline = time.monotonic() + deadline_s
    assert proc.stdout is not None
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SmokeError(
                f"lookhd_serve exited early "
                f"(exit {proc.returncode})")
        line = proc.stdout.readline()
        if not line:
            time.sleep(0.01)
            continue
        match = PORT_RE.search(line)
        if match:
            ports[match.group(1)] = int(match.group(2))
        if "listening" in ports and "metrics" in ports:
            return ports["listening"], ports["metrics"]
    raise SmokeError("timed out waiting for lookhd_serve to "
                     "announce its ports")


def scrape(port: int, route: str) -> str:
    url = f"http://127.0.0.1:{port}{route}"
    last: Exception | None = None
    for _ in range(20):
        try:
            with urllib.request.urlopen(url, timeout=10) as resp:
                return resp.read().decode("utf-8")
        except (urllib.error.URLError, OSError) as exc:
            last = exc
            time.sleep(0.1)
    raise SmokeError(f"cannot scrape {url}: {last}")


def scrape_status(port: int, route: str) -> tuple[int, str]:
    """Like scrape(), but a non-2xx status (503 from an unready
    /healthz) is a result, not an error."""
    url = f"http://127.0.0.1:{port}{route}"
    last: Exception | None = None
    for _ in range(20):
        try:
            with urllib.request.urlopen(url, timeout=10) as resp:
                return resp.status, resp.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read().decode("utf-8")
        except (urllib.error.URLError, OSError) as exc:
            last = exc
            time.sleep(0.1)
    raise SmokeError(f"cannot scrape {url}: {last}")


def scrape_typed(port: int, route: str) -> tuple[int, str, str]:
    """Scrape returning (status, Content-Type, body).

    Non-2xx HTTP statuses are results (the profile phase keys off
    404 = profiler compiled out); only connection failures retry.
    """
    url = f"http://127.0.0.1:{port}{route}"
    last: Exception | None = None
    for _ in range(20):
        try:
            with urllib.request.urlopen(url, timeout=60) as resp:
                return (resp.status,
                        resp.headers.get("Content-Type", ""),
                        resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            return (exc.code, exc.headers.get("Content-Type", ""),
                    exc.read().decode("utf-8"))
        except (urllib.error.URLError, OSError) as exc:
            last = exc
            time.sleep(0.1)
    raise SmokeError(f"cannot scrape {url}: {last}")


def profile_phase(loadgen_bin: str, port: int, metrics_port: int,
                  out_dir: Path, work: Path) -> None:
    """Sample the busy server's CPU through /debug/profile.

    A background loadgen keeps the workers scoring for the whole
    sampling window; it is torn down once the scrapes are done (the
    request budget is effectively unbounded).
    """
    loadgen = subprocess.Popen(
        [loadgen_bin, "--port", str(port), "--features",
         str(FEATURES), "--seed", "7", "--connections", "2",
         "--burst", "8", "--requests", "100000000", "--quiet"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        status, ctype, body = scrape_typed(
            metrics_port,
            f"/debug/profile?seconds={PROFILE_SECONDS}"
            f"&hz={PROFILE_HZ}")
        if status == 404:
            print("serve_smoke: profiler compiled out, skipping "
                  "profile phase")
            return
        if status != 200:
            raise SmokeError(f"/debug/profile returned {status}: "
                             f"{body[:200]}")
        if not ctype.startswith("text/plain"):
            raise SmokeError(
                f"collapsed /debug/profile Content-Type is "
                f"{ctype!r}, expected text/plain")
        out_dir.mkdir(parents=True, exist_ok=True)
        collapsed = out_dir / "serve_profile.collapsed"
        collapsed.write_text(body, encoding="utf-8")
        try:
            stacks, total = validate_profile.parse_collapsed(body)
            validate_profile.check_bound(
                total, PROFILE_SECONDS, PROFILE_HZ,
                PROFILE_MAX_BUSY_THREADS)
        except validate_profile.ProfileError as exc:
            raise SmokeError(
                f"collapsed profile failed lint: {exc}")
        frames = [f for fs, _ in stacks for f in fs]
        if not any("scoresBatch" in f or "similarityBatch" in f
                   for f in frames):
            raise SmokeError(
                "no profile frame shows the kernel scoring path "
                "(scoresBatch/similarityBatch) despite loadgen "
                f"traffic; {total} samples in {len(stacks)} stacks")

        status, ctype, body = scrape_typed(
            metrics_port,
            "/debug/profile?seconds=1&hz=99&format=speedscope")
        if status != 200:
            raise SmokeError(
                f"speedscope /debug/profile returned {status}: "
                f"{body[:200]}")
        if not ctype.startswith("application/json"):
            raise SmokeError(
                f"speedscope /debug/profile Content-Type is "
                f"{ctype!r}, expected application/json")
        try:
            validate_profile.parse_speedscope(body)
        except validate_profile.ProfileError as exc:
            raise SmokeError(
                f"speedscope profile failed lint: {exc}")
        (work / "serve_profile.speedscope.json").write_text(
            body, encoding="utf-8")

        # collect() folded the session's stage tallies into the
        # registry; the scrape must now carry the profiler families
        # and still pass the Prometheus format lint.
        prom = scrape(metrics_port, "/metrics")
        problems = validate_prometheus.check_text(prom, "/metrics")
        if problems:
            raise SmokeError(
                "/metrics failed format lint after profiling:\n" +
                "\n".join(problems))
        for family in ("lookhd_profile_stage_cpu_ns{stage=\"score\"}",
                       "lookhd_profile_samples",
                       "lookhd_process_rss_bytes"):
            if family not in prom:
                raise SmokeError(f"/metrics lacks {family} after a "
                                 f"profile session")
        print(f"serve_smoke: profile phase OK ({total} samples, "
              f"{len(stacks)} stacks, kernel scoring frame hot, "
              f"stage gauges scraping clean, wrote {collapsed})")
    finally:
        loadgen.terminate()
        try:
            loadgen.wait(timeout=30)
        except subprocess.TimeoutExpired:
            loadgen.kill()


def check_prometheus(text: str) -> None:
    problems = validate_prometheus.check_text(text, "/metrics")
    if problems:
        raise SmokeError("/metrics failed format lint:\n" +
                         "\n".join(problems))
    req = re.search(
        r"^lookhd_serve_requests_total\s+(\d+)", text, re.M)
    if not req:
        raise SmokeError("/metrics has no "
                         "lookhd_serve_requests_total sample")
    if int(req.group(1)) == 0:
        raise SmokeError("lookhd_serve_requests_total is zero "
                         "after the load run")
    if not re.search(r"^lookhd_serve_request_latency_ns_bucket\{",
                     text, re.M):
        raise SmokeError("/metrics has no request-latency histogram "
                         "buckets")
    multi = re.search(
        r"^lookhd_serve_batches_multi_total\s+(\d+)", text, re.M)
    if not multi:
        raise SmokeError("/metrics has no "
                         "lookhd_serve_batches_multi_total sample")
    if int(multi.group(1)) == 0:
        raise SmokeError(
            "no batch larger than one request was processed - the "
            "batched predict path was never exercised (burst "
            "pipelining broken?)")


def traced_request(port: int) -> int:
    """One raw-socket request with a client-supplied trace id.

    Returns the client-observed latency in nanoseconds (send to
    full response line). The trace echo is wire protocol and must
    hold on every build, including -DLOOKHD_OBS=OFF.
    """
    request = {"id": TRACE_REQ_ID, "trace": TRACE_HEX,
               "features": [1.5, 19.25, 3.0]}
    payload = (json.dumps(request) + "\n").encode("utf-8")
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=10) as sock:
        start = time.perf_counter_ns()
        sock.sendall(payload)
        buf = b""
        while b"\n" not in buf:
            chunk = sock.recv(4096)
            if not chunk:
                raise SmokeError("server closed the connection "
                                 "before answering the traced "
                                 "request")
            buf += chunk
        client_ns = time.perf_counter_ns() - start
    response = json.loads(buf.split(b"\n", 1)[0].decode("utf-8"))
    if response.get("id") != TRACE_REQ_ID:
        raise SmokeError(f"traced request answered with wrong id: "
                         f"{response}")
    if response.get("trace") != TRACE_HEX:
        raise SmokeError(
            f"traced request did not echo the client trace id "
            f"(sent {TRACE_HEX}, got {response.get('trace')!r})")
    if "pred" not in response:
        raise SmokeError(f"traced response has no prediction: "
                         f"{response}")
    return client_ns


def check_debug_endpoints(metrics_port: int, client_ns: int,
                          prom: str) -> None:
    """Observability-on assertions: /debug/* and live exemplars."""
    debug = json.loads(scrape(metrics_port, "/debug/requests"))
    if debug.get("captured_total", 0) < 1:
        raise SmokeError("/debug/requests captured_total is zero "
                         "despite --sample-every 1")
    record = next((r for r in debug.get("records", [])
                   if r.get("trace") == TRACE_HEX), None)
    if record is None:
        raise SmokeError(
            f"/debug/requests has no record for trace {TRACE_HEX} "
            f"(records: {len(debug.get('records', []))})")
    stages = record.get("stages", {})
    for stage in ("parse", "queue", "batch_form", "score",
                  "serialize", "write"):
        if stage not in stages:
            raise SmokeError(f"captured request lacks stage "
                             f"'{stage}': {stages}")
    stage_sum = sum(stages.values())
    if stage_sum <= 0:
        raise SmokeError(f"captured stage breakdown is empty: "
                         f"{stages}")
    # The stages are disjoint sub-intervals of the server's own
    # request window, so their sum can never exceed total_ns.
    if stage_sum > record["total_ns"]:
        raise SmokeError(
            f"stage breakdown sums to {stage_sum} ns, more than "
            f"the request's own total {record['total_ns']} ns")
    # Against the client clock the comparison is looser: the client
    # timer stops the moment the kernel delivers the response, but
    # the server stamps the write stage only after its send()
    # returns, so server accounting overhangs the client window by
    # the tail of that syscall. 5% relative plus a small absolute
    # grace absorbs it (the absolute term matters on sanitizer
    # builds, where syscalls are slow and the round trip is short).
    grace_ns = 500_000
    if stage_sum > client_ns * 1.05 + grace_ns:
        raise SmokeError(
            f"stage breakdown sums to {stage_sum} ns, more than "
            f"the client-observed {client_ns} ns (+5% and "
            f"{grace_ns} ns grace)")
    if not EXEMPLAR_BUCKET_RE.search(prom):
        raise SmokeError("/metrics has no exemplar-bearing "
                         "histogram bucket")
    inflight = json.loads(scrape(metrics_port, "/debug/inflight"))
    for key in ("queued", "workers"):
        if key not in inflight:
            raise SmokeError(f"/debug/inflight lacks '{key}': "
                             f"{inflight}")
    trace_doc = json.loads(scrape(metrics_port,
                                  "/debug/trace?ms=20"))
    if "traceEvents" not in trace_doc:
        raise SmokeError(f"/debug/trace returned no traceEvents: "
                         f"{list(trace_doc)}")
    print(f"serve_smoke: traced request captured "
          f"(stages {stage_sum} ns vs client {client_ns} ns), "
          f"/debug endpoints live")


def check_slow_log(path: Path) -> None:
    if not path.is_file():
        raise SmokeError(f"slow-request log {path} was not written")
    traced = False
    for i, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SmokeError(
                f"slow log line {i} is not valid JSON: {exc}")
        traced = traced or record.get("trace") == TRACE_HEX
    if not traced:
        raise SmokeError(f"slow log never captured trace "
                         f"{TRACE_HEX}")


def emit_bench_json(snapshot: dict, loadgen: re.Match,
                    config: dict, out_dir: Path,
                    quick: bool) -> Path:
    registry = snapshot.get("registry", {})
    latency = registry.get("latency", {}).get(
        "serve.request.latency")
    if not latency:
        raise SmokeError("/metrics.json has no "
                         "serve.request.latency histogram")
    counters = registry.get("counters", {})
    try:
        git_rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        ).stdout.strip() or "unknown"
    except OSError:
        git_rev = "unknown"

    doc = {
        "schema": "lookhd-bench-v3",
        "name": "serve_smoke",
        "git_rev": git_rev,
        "quick": quick,
        "config": config,
        "metrics": {
            # Server-side histogram estimates; gateable by
            # bench_compare.py once bench/baselines pins a run.
            "serve_latency_p50_ns": latency["p50_ns"],
            "serve_latency_p90_ns": latency["p90_ns"],
            "serve_latency_p99_ns": latency["p99_ns"],
            "serve_latency_mean_ns": latency["mean_ns"],
            "serve_requests": counters.get("serve.requests", 0),
            "serve_batches": counters.get("serve.batches", 0),
            "serve_batches_multi": counters.get(
                "serve.batches.multi", 0),
            "serve_requests_batched": counters.get(
                "serve.requests.batched", 0),
            # Client-side view from lookhd_loadgen (exact
            # quantiles, closed loop).
            "client_qps": float(loadgen.group(3)),
            "client_p50_us": float(loadgen.group(4)),
            "client_p99_us": float(loadgen.group(6)),
        },
        "registry": registry,
        "span_rollup": snapshot.get("span_rollup", []),
        "quality": snapshot.get("quality",
                                {"margins": {}, "confusion": {}}),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "BENCH_serve_smoke.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    problems = validate_bench_json.check_file(out)
    if problems:
        raise SmokeError("assembled bench JSON fails validation:\n" +
                         "\n".join(problems))
    return out


def check_event_log(path: Path) -> int:
    if not path.is_file():
        raise SmokeError(f"event log {path} was not written")
    events = []
    for i, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise SmokeError(
                f"event log line {i} is not valid JSON: {exc}")
    names = {e.get("event") for e in events}
    for required in ("serve.start", "serve.shutdown"):
        if required not in names:
            raise SmokeError(
                f"event log lacks a '{required}' event "
                f"(saw: {sorted(n for n in names if n)})")
    return len(events)


def degraded_phase(serve_bin: str, model: Path, work: Path) -> None:
    """Readiness-lifecycle scenario on a second server instance.

    One slow worker (5 ms per request via --score-delay-us) behind a
    4-deep queue, burst 400 pipelined requests: /healthz must flip
    to 503 with a machine-readable reason while the episode is live,
    /debug/health must agree, and the verdict must recover to 200
    after the queue drains and the overload hold expires. Both
    /debug/health bodies land in the workdir so CI uploads them as
    artifacts.
    """
    server = subprocess.Popen(
        [serve_bin, "--model", str(model), "--port", "0",
         "--metrics-port", "0", "--workers", "1",
         "--batch-max", "1", "--queue-cap", "4",
         "--score-delay-us", "5000", "--window-s", "1",
         "--slo-error-rate", "0.01", "--overload-hold-ms", "1500",
         "--max-seconds", "120"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        port, metrics_port = wait_for_ports(server)
        status, _ = scrape_status(metrics_port, "/healthz")
        if status != 200:
            raise SmokeError(f"degraded-phase server starts "
                             f"unready ({status})")

        # Burst far past queue capacity; responses stay unread while
        # /healthz is polled so the episode is observed live.
        burst = 400
        request = {"id": 1, "features": [1.5, 19.25, 3.0]}
        payload = (json.dumps(request) + "\n").encode("utf-8") * burst
        degraded = None
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10) as sock:
            sock.sendall(payload)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and degraded is None:
                status, body = scrape_status(metrics_port,
                                             "/healthz")
                if status == 503:
                    degraded = json.loads(body)
                else:
                    time.sleep(0.05)
            if degraded is None:
                raise SmokeError(
                    "/healthz never flipped to 503 during a burst "
                    "past queue capacity")
            if degraded.get("status") != "unready" or \
                    not degraded.get("reason"):
                raise SmokeError(f"503 body is not "
                                 f"machine-readable: {degraded}")
            debug = scrape(metrics_port, "/debug/health")
            (work / "debug_health_degraded.json").write_text(
                debug, encoding="utf-8")
            if not json.loads(debug).get("reason"):
                raise SmokeError(f"/debug/health lacks a reason "
                                 f"while degraded: {debug}")
            # Read every response so the server can go idle.
            buf = b""
            while buf.count(b"\n") < burst:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                buf += chunk
        overloads = sum(
            1 for line in buf.decode("utf-8").splitlines()
            if "overloaded" in line)
        if overloads == 0:
            raise SmokeError("no request was rejected as "
                             "overloaded despite the burst")

        recovered = False
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and not recovered:
            status, _ = scrape_status(metrics_port, "/healthz")
            recovered = status == 200
            if not recovered:
                time.sleep(0.25)
        if not recovered:
            raise SmokeError("/healthz did not recover to 200 "
                             "within 30s of the queue draining")
        (work / "debug_health_recovered.json").write_text(
            scrape(metrics_port, "/debug/health"),
            encoding="utf-8")
        print(f"serve_smoke: degraded phase OK "
              f"(reason={degraded['reason']}, {overloads} overload "
              f"rejections, recovered to ready)")
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()


def _predictions(port: int, queries: list[list[float]]) -> list[int]:
    """Predicted class per query over one pipelined connection."""
    payload = "".join(
        json.dumps({"id": i, "features": q}) + "\n"
        for i, q in enumerate(queries)).encode("utf-8")
    preds: dict[int, int] = {}
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=10) as sock:
        sock.sendall(payload)
        buf = b""
        while buf.count(b"\n") < len(queries):
            chunk = sock.recv(65536)
            if not chunk:
                break
            buf += chunk
    for line in buf.decode("utf-8").splitlines():
        doc = json.loads(line)
        if "pred" not in doc:
            raise SmokeError(f"quantized-phase error response: "
                             f"{line}")
        preds[doc["id"]] = doc["pred"]
    if len(preds) != len(queries):
        raise SmokeError(f"quantized phase got {len(preds)} "
                         f"responses for {len(queries)} queries")
    return [preds[i] for i in range(len(queries))]


def quantized_phase(serve_bin: str, model: Path, work: Path) -> None:
    """Binary-first serving scenario on the trained model.

    Serve the same model twice -- once forced to the float64 path,
    once with --precision int8 -- and drive both with the same fixed
    query set: the quantized predictions must match the float ones
    query for query, the quantized server's /metrics must show the
    serve.requests.quantized counter covering the whole set plus
    kernel/precision build-info labels, and the float server must
    leave the counter untouched. The int8 /metrics body lands in the
    workdir for CI artifact upload.
    """
    queries = [[1.5 + (i % 5), 19.25 - (i % 3) * 10.0, float(i % 7)]
               for i in range(40)]
    results: dict[str, list[int]] = {}
    for precision in ("float64", "int8"):
        server = subprocess.Popen(
            [serve_bin, "--model", str(model), "--port", "0",
             "--metrics-port", "0", "--workers", "2",
             "--precision", precision, "--max-seconds", "120"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            port, metrics_port = wait_for_ports(server)
            results[precision] = _predictions(port, queries)
            prom = scrape(metrics_port, "/metrics")
        finally:
            server.send_signal(signal.SIGTERM)
            try:
                server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()

        problems = validate_prometheus.check_text(
            prom, f"/metrics ({precision})")
        if problems:
            raise SmokeError(
                "quantized-phase /metrics failed format lint:\n" +
                "\n".join(problems))
        label = re.search(
            r'lookhd_build_info\{[^}]*precision="([^"]*)"', prom)
        if not label or label.group(1) != precision:
            raise SmokeError(
                f"build_info precision label is "
                f"{label.group(1) if label else 'missing'!r}, "
                f"expected {precision!r}")
        if not re.search(r'lookhd_build_info\{[^}]*kernel="\w+"',
                         prom):
            raise SmokeError("build_info lacks a kernel label")
        counter = re.search(
            r"^lookhd_serve_requests_quantized_total\s+(\d+)",
            prom, re.M)
        if not counter:
            raise SmokeError("/metrics lacks the "
                             "serve.requests.quantized counter")
        quantized = int(counter.group(1))
        if precision == "int8":
            (work / "metrics_quantized.prom").write_text(
                prom, encoding="utf-8")
            if quantized < len(queries):
                raise SmokeError(
                    f"quantized counter {quantized} < "
                    f"{len(queries)} served requests: the int8 "
                    f"path did not fire")
        elif quantized != 0:
            raise SmokeError(f"float64 serving advanced the "
                             f"quantized counter to {quantized}")

    mismatches = sum(
        1 for a, b in zip(results["float64"], results["int8"])
        if a != b)
    if mismatches:
        raise SmokeError(
            f"{mismatches}/{len(queries)} quantized predictions "
            f"diverge from the float path on fixed queries")
    print(f"serve_smoke: quantized phase OK ({len(queries)} "
          f"queries, int8 == float64, counter and labels present)")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--train", required=True)
    parser.add_argument("--serve", required=True)
    parser.add_argument("--loadgen", required=True)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--out-dir", required=True, type=Path)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    work = args.workdir
    work.mkdir(parents=True, exist_ok=True)
    csv = work / "serve_smoke.csv"
    model = work / "serve_smoke_model.bin"
    event_log = work / "serve_events.jsonl"
    slow_log = work / "serve_slow.jsonl"
    write_csv(csv)

    run([args.train, "--input", str(csv), "--output", str(model),
         "--dim", "500", "--q", "4", "--r", "3", "--epochs", "3",
         "--quiet"], "lookhd_train")

    server = subprocess.Popen(
        [args.serve, "--model", str(model), "--port", "0",
         "--metrics-port", "0", "--workers", "2",
         "--event-log", str(event_log), "--max-seconds", "240",
         "--sample-every", "1", "--slow-log", str(slow_log)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        port, metrics_port = wait_for_ports(server)
        print(f"serve_smoke: server up, request port {port}, "
              f"metrics port {metrics_port}")

        # --burst pipelines requests per connection so worker-side
        # batches fill beyond one request (check_prometheus asserts
        # the multi-request-batch counter moved).
        loadgen_cmd = [args.loadgen, "--port", str(port),
                       "--features", str(FEATURES), "--seed", "42",
                       "--burst", "8", "--trace"]
        if args.quick:
            loadgen_cmd.append("--quick")
        loadgen_out = run(loadgen_cmd, "lookhd_loadgen")
        summary = LOADGEN_RE.search(loadgen_out)
        if not summary:
            raise SmokeError(
                f"unparseable loadgen summary:\n{loadgen_out}")
        if int(summary.group(2)) != 0:
            raise SmokeError(f"loadgen reported errors:\n"
                             f"{loadgen_out}")
        print(f"serve_smoke: {loadgen_out.strip()}")

        # Traced request last so its slow-log record survives the
        # loadgen flood and the /metrics scrape below can carry its
        # exemplar.
        client_ns = traced_request(port)
        print(f"serve_smoke: traced request echoed "
              f"{TRACE_HEX[:8]}… in {client_ns / 1e6:.2f} ms")

        status, health = scrape_status(metrics_port, "/healthz")
        if status != 200 or "ok" not in health:
            raise SmokeError(
                f"/healthz returned {status} {health!r} on a "
                f"healthy server")
        prom = scrape(metrics_port, "/metrics")
        (work / "metrics.prom").write_text(prom, encoding="utf-8")
        check_prometheus(prom)
        print("serve_smoke: /metrics format lint clean")

        obs_on = re.search(r'lookhd_build_info\{[^}]*obs="on"',
                           prom) is not None
        if obs_on:
            check_debug_endpoints(metrics_port, client_ns, prom)
        else:
            print("serve_smoke: observability compiled out, "
                  "skipping /debug and exemplar checks")

        snapshot = json.loads(scrape(metrics_port, "/metrics.json"))
        config = {
            "workers": 2,
            "features": FEATURES,
            "requests": int(summary.group(1)),
            "quick": args.quick,
        }
        bench = emit_bench_json(snapshot, summary, config,
                                args.out_dir, args.quick)
        print(f"serve_smoke: wrote {bench}")

        profile_phase(args.loadgen, port, metrics_port,
                      args.out_dir, work)
    except Exception:
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
        raise

    server.send_signal(signal.SIGTERM)
    try:
        stdout, stderr = server.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        server.kill()
        raise SmokeError("lookhd_serve did not exit within 60s of "
                         "SIGTERM")
    if server.returncode != 0:
        raise SmokeError(
            f"lookhd_serve exited {server.returncode} after "
            f"SIGTERM\nstdout:\n{stdout}\nstderr:\n{stderr}")
    if "clean shutdown" not in stdout:
        raise SmokeError(f"lookhd_serve did not report a clean "
                         f"shutdown:\n{stdout}")
    events = check_event_log(event_log)
    if obs_on:
        check_slow_log(slow_log)
        print("serve_smoke: slow-request log flushed with the "
              "traced request")
    print(f"serve_smoke: clean shutdown, event log flushed "
          f"({events} events)")
    degraded_phase(args.serve, model, work)
    quantized_phase(args.serve, model, work)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SmokeError as exc:
        print(f"serve_smoke: FAIL: {exc}", file=sys.stderr)
        sys.exit(1)
