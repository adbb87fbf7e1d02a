"""The ``service-open`` workload: ``python -m repro serve --workers 1``
in a subprocess, driven over HTTP by one client with at most two
connections.

Phases:

1. set-up, repeated :data:`SETUP_REPEATS` times on fresh stores: start
   the server, wait for ``/healthz``, run one warm-up job to a
   certified result; the last server is kept for the measurement;
2. open loop: ``OPEN_RATE * seconds`` jobs arrive on a seeded jittered
   schedule (see :func:`schedule_for`) at half of one worker's capacity
   of about 4 jobs/s; each job is timed from when it was due to when its result
   was fetched and certified, while a scraper reads ``/metrics`` on a
   fixed cadence on the second connection;
3. burst: :data:`BURST_JOBS` jobs submitted at once.

The workload seed seeds every job's ``rng_seed`` and the arrival
schedule. The dataset is the registry's 2k at scale 0.1 (234 areas):
changing its seed moved the median p and H over 20 jobs by about 10 %
(p 33/30/31, H 307k/352k/317k for three dataset seeds), which would
swamp any regression bound on them.

Service layers are measured from outside only: client round trips,
journal record timestamps, per-job artifact sizes and the worker
process's ``/proc`` counters. There is no tracing inside the worker.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import threading
import time

from .stats import median, partition_digest, tail_percentile

DATASET = "2k"
SCALE = 0.1
OPEN_RATE = 2.0
BURST_JOBS = 12
SETUP_REPEATS = 3
POLL_S = 0.02
SCRAPE_S = 0.5
JOB_TIMEOUT_S = 30.0
START_TIMEOUT_S = 60.0
TERMINAL = {"completed", "failed", "cancelled", "dead"}


class Client:
    """One keep-alive HTTP connection speaking JSON."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    def request(self, method: str, path: str, body=None):
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {} if payload is None else {"Content-Type": "application/json"}
        started = time.perf_counter()
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        elapsed = time.perf_counter() - started
        if response.getheader("Content-Type", "").startswith("application/json"):
            data = json.loads(data)
        return response.status, data, elapsed

    def close(self):
        self.conn.close()


class Server:
    """The service subprocess and its one worker."""

    def __init__(self, root: str, store: str):
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.store = store
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--store", store, "--port", "0", "--workers", "1",
                "--drain-seconds", "10",
            ],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            start_new_session=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"service did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        self.worker_pid: int | None = None

    def find_worker(self) -> int | None:
        if self.worker_pid is None:
            task_dir = f"/proc/{self.proc.pid}/task"
            for tid in os.listdir(task_dir):
                with open(f"{task_dir}/{tid}/children", encoding="ascii") as handle:
                    pids = handle.read().split()
                if pids:
                    self.worker_pid = int(pids[0])
        return self.worker_pid

    def worker_cpu_s(self) -> float:
        with open(f"/proc/{self.find_worker()}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def worker_peak_rss_mb(self) -> float:
        with open(f"/proc/{self.find_worker()}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("worker has no VmHWM")

    def stop(self) -> None:
        """Drain the service and wait until it and its worker ended."""
        worker = self.worker_pid
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        if worker is not None:
            deadline = time.monotonic() + 10
            while os.path.exists(f"/proc/{worker}") and time.monotonic() < deadline:
                time.sleep(0.05)
            if os.path.exists(f"/proc/{worker}"):
                try:
                    os.kill(worker, signal.SIGKILL)
                except ProcessLookupError:
                    pass


class Load:
    """The client side of one measurement: submissions, polls,
    outside certification and the samples they yield."""

    def __init__(self, client: Client):
        from repro.core.constraints import ConstraintSet
        from repro.data.datasets import load_dataset
        from repro.data.schema import default_constraints

        self.client = client
        self.collection = load_dataset(DATASET, scale=SCALE)
        self.constraints = ConstraintSet(default_constraints())
        self.submit_s: list[float] = []
        self.read_s: list[float] = []
        self.certify_s: list[float] = []
        self.jobs: list[dict] = []

    def spec(self, rng_seed: int) -> dict:
        return {
            "dataset": DATASET,
            "scale": SCALE,
            "config": {"rng_seed": rng_seed},
            "label": f"perfbench-{rng_seed}",
        }

    def submit(self, rng_seed: int, due: float) -> dict:
        status, payload, elapsed = self.client.request(
            "POST", "/jobs", self.spec(rng_seed)
        )
        self.submit_s.append(elapsed)
        job = {"rng_seed": rng_seed, "due": due, "ok": False}
        if status != 201:
            job["error"] = f"submit answered {status}: {payload}"
            job["done"] = True
        else:
            job["job_id"] = payload["job_id"]
            job["done"] = False
        self.jobs.append(job)
        return job

    def poll(self, job: dict) -> bool:
        """Poll one job once; on a terminal state fetch and certify its
        result. True when the job is finished."""
        status, payload, elapsed = self.client.request(
            "GET", f"/jobs/{job['job_id']}"
        )
        self.read_s.append(elapsed)
        if status != 200:
            job.update(done=True, error=f"status answered {status}")
            return True
        if payload["state"] not in TERMINAL:
            return False
        job["attempts"] = payload["attempts"]
        if payload["state"] != "completed" or payload["result_status"] != "complete":
            job.update(
                done=True,
                error=f"job ended {payload['state']}/{payload['result_status']}: "
                f"{payload.get('error')}",
            )
            return True
        status, result, _elapsed = self.client.request(
            "GET", f"/jobs/{job['job_id']}/result"
        )
        if status != 200:
            job.update(done=True, error=f"result answered {status}")
            return True
        self.check(job, result)
        job["finished"] = time.perf_counter()
        job["done"] = True
        return True

    def check(self, job: dict, result: dict) -> None:
        """Certify the returned labels from outside, with the claimed H."""
        from repro.certify import certify_partition
        from repro.core.partition import Partition

        summary = result["summary"]
        labels = {int(area): int(region) for area, region in result["labels"].items()}
        started = time.perf_counter()
        certificate = certify_partition(
            Partition.from_labels(labels),
            self.collection,
            self.constraints,
            claimed_heterogeneity=summary["heterogeneity_after"],
        )
        self.certify_s.append(time.perf_counter() - started)
        timings = (summary.get("perf") or {}).get("timings", {})
        job.update(
            violations=len(certificate.violations),
            p=certificate.p,
            unassigned=certificate.n_unassigned,
            heterogeneity=certificate.heterogeneity,
            solver_s=sum(timings.values()),
            digest=partition_digest(
                labels, certificate.p, certificate.n_unassigned,
                certificate.heterogeneity,
            ),
        )
        if certificate.violations:
            job["error"] = f"certification found {len(certificate.violations)} violation(s)"
        else:
            job["ok"] = True

    def wait_all(self, jobs: list[dict], timeout: float) -> None:
        deadline = time.perf_counter() + timeout
        for job in jobs:
            while not job["done"]:
                if time.perf_counter() > deadline:
                    job.update(done=True, error="no result before the run's timeout")
                    break
                if not self.poll(job):
                    time.sleep(POLL_S)

    def open_loop(self, schedule: list[tuple[float, int]], timeout: float) -> float:
        """Submit on *schedule* (offsets in seconds, rng seed) while
        polling the oldest unfinished job; returns the generator's
        worst lateness."""
        start = time.perf_counter()
        late_max = 0.0
        pending: list[dict] = []
        index = 0
        while index < len(schedule) or pending:
            now = time.perf_counter()
            if now - start > timeout:
                for job in pending:
                    job.update(done=True, error="no result before the run's timeout")
                break
            if index < len(schedule) and start + schedule[index][0] <= now:
                due = start + schedule[index][0]
                late_max = max(late_max, now - due)
                job = self.submit(schedule[index][1], due)
                if not job["done"]:
                    pending.append(job)
                index += 1
                continue
            if pending and self.poll(pending[0]):
                pending.pop(0)
                continue
            wake = now + POLL_S
            if index < len(schedule):
                wake = min(wake, start + schedule[index][0])
            time.sleep(max(wake - time.perf_counter(), 0.0))
        return late_max


class Scraper(threading.Thread):
    """Reads ``/metrics`` on a fixed cadence on its own connection."""

    def __init__(self, port: int, samples: list[float]):
        super().__init__(name="perfbench-scraper", daemon=True)
        self.client = Client(port)
        self.samples = samples
        self.errors = 0
        self._stop_event = threading.Event()

    def run(self) -> None:
        try:
            while not self._stop_event.wait(SCRAPE_S):
                status, _text, elapsed = self.client.request("GET", "/metrics")
                if status == 200:
                    self.samples.append(elapsed)
                else:
                    self.errors += 1
        finally:
            self.client.close()

    def stop(self) -> None:
        self._stop_event.set()
        self.join(timeout=30)


def _start(root: str, store: str, rng_seed: int):
    """Start a server on a fresh store and carry one warm-up job to a
    certified result; returns ``(server, client, load, warmup, seconds)``."""
    started = time.perf_counter()
    shutil.rmtree(store, ignore_errors=True)
    server = Server(root, store)
    client = Client(server.port)
    try:
        deadline = time.perf_counter() + START_TIMEOUT_S
        while True:
            try:
                status, _payload, _elapsed = client.request("GET", "/healthz")
                if status == 200:
                    break
            except OSError:
                client.close()
                client = Client(server.port)
            if time.perf_counter() > deadline:
                raise RuntimeError("service never answered /healthz")
            time.sleep(0.02)
        load = Load(client)
        warmup = load.submit(rng_seed, time.perf_counter())
        load.wait_all([warmup], JOB_TIMEOUT_S)
    except BaseException:
        client.close()
        server.stop()
        raise
    return server, client, load, warmup, time.perf_counter() - started


def _journal_stats(store: str, job_ids: set[str]) -> dict:
    """Per-job timings and sizes read from the store after the run."""
    path = os.path.join(store, "journal.jsonl")
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    submitted: dict[str, float] = {}
    leased: dict[str, float] = {}
    running: dict[str, float] = {}
    completed: dict[str, float] = {}
    for record in records:
        job_id = record.get("job")
        target = record.get("state")
        if record.get("kind") == "submit":
            submitted[job_id] = record["ts"]
        elif target == "leased":
            leased.setdefault(job_id, record["ts"])
        elif target == "running":
            running[job_id] = record["ts"]
        elif target == "completed":
            completed[job_id] = record["ts"]
    sizes = {"events": [], "checkpoint": []}
    for job_id in job_ids:
        for kind, name in (("events", "events.jsonl"), ("checkpoint", "checkpoint.json")):
            file = os.path.join(store, "jobs", job_id, name)
            sizes[kind].append(os.path.getsize(file) if os.path.exists(file) else 0)
    n_jobs = max(len(submitted), 1)
    return {
        "queue_wait": {
            j: leased[j] - submitted[j] for j in job_ids if j in leased and j in submitted
        },
        "run": {
            j: completed[j] - running[j] for j in job_ids if j in running and j in completed
        },
        "journal_bytes_per_job": os.path.getsize(path) / n_jobs,
        "journal_records_per_job": len(records) / n_jobs,
        "events_bytes_per_job": sum(sizes["events"]) / max(len(job_ids), 1),
        "checkpoint_bytes_per_job": sum(sizes["checkpoint"]) / max(len(job_ids), 1),
    }


def schedule_for(seed: int, seconds: float, rate: float = OPEN_RATE):
    """The seeded open-loop arrivals as ``(offset, rng_seed)`` pairs:
    ``round(rate * seconds)`` slots of ``1 / rate`` seconds, one arrival
    at a seeded random instant in the middle 80 % of each slot.

    Arrivals never come closer than a fifth of a slot, so at this rate
    a job only queues when the host is slow: with Poisson arrivals,
    chance clumps queued jobs behind each other and moved the median
    latency of a run by 40 % between seeds."""
    rng = random.Random(f"service-open/{seed}")
    slot = 1.0 / rate
    return [
        ((index + rng.uniform(0.1, 0.9)) * slot, rng.randrange(1, 2**31))
        for index in range(max(1, round(rate * seconds)))
    ]


def run(seconds: float, seed: int, root: str, out_dir: str, import_s: float) -> dict:
    """Run the workload; returns the run record."""
    rng = random.Random(f"service-seeds/{seed}")
    warmup_seed = rng.randrange(1, 2**31)
    burst_seeds = [rng.randrange(1, 2**31) for _ in range(BURST_JOBS - 1)]
    # The last burst job repeats the warm-up job: its digest must match.
    burst_seeds.append(warmup_seed)
    schedule = schedule_for(seed, seconds)
    record: dict = {
        "dataset": DATASET,
        "scale": SCALE,
        "open_rate": OPEN_RATE,
        "open_jobs": len(schedule),
        "burst_jobs": BURST_JOBS,
    }
    setups = []
    server = client = None
    try:
        for index in range(SETUP_REPEATS):
            store = os.path.join(out_dir, f"store-{index}")
            server, client, load, warmup, elapsed = _start(
                root, store, warmup_seed
            )
            setups.append(elapsed)
            if index < SETUP_REPEATS - 1:
                client.close()
                server.stop()
                shutil.rmtree(store, ignore_errors=True)
        record["n_areas"] = len(load.collection)
        reads: list[float] = []
        scraper = Scraper(server.port, reads)
        cpu_before = server.worker_cpu_s()
        scraper.start()
        try:
            open_started = time.perf_counter()
            late_max = load.open_loop(schedule, seconds + JOB_TIMEOUT_S)
            open_elapsed = time.perf_counter() - open_started
            cpu_open = server.worker_cpu_s() - cpu_before
            open_jobs = list(load.jobs[1:])
            burst_started = time.perf_counter()
            burst = [load.submit(s, burst_started) for s in burst_seeds]
            load.wait_all(burst, JOB_TIMEOUT_S)
            burst_elapsed = time.perf_counter() - burst_started
        finally:
            scraper.stop()
        peak_rss = server.worker_peak_rss_mb()
    finally:
        if client is not None:
            client.close()
        if server is not None:
            server.stop()
    all_jobs = [warmup] + open_jobs + burst
    reference = warmup.get("digest")
    if burst[-1].get("ok") and burst[-1].get("digest") != reference:
        burst[-1].update(ok=False, error="digest differs from the warm-up job's")
    stats = _journal_stats(
        server.store, {job["job_id"] for job in all_jobs if "job_id" in job}
    )
    shutil.rmtree(server.store, ignore_errors=True)
    record["jobs"] = all_jobs
    record["setup_s"] = setups
    good_open = [job for job in open_jobs if job["ok"]]
    good_all = [job for job in all_jobs if job["ok"]]
    latencies = [job["finished"] - job["due"] for job in good_open]
    metrics: dict = {
        "setup_s": import_s + median(setups),
        "fail_ratio": 1 - len(good_all) / len(all_jobs),
        "peak_rss_mb": peak_rss,
        "loadgen.late_max_s": late_max,
    }
    record["open_elapsed_s"] = open_elapsed
    if good_open:
        tail_q, tail, n = tail_percentile(latencies)
        metrics.update(
            solve_s=median([job["solver_s"] for job in good_open]),
            solve_cpu_s=cpu_open / len(open_jobs),
            p=median([job["p"] for job in good_open]),
            heterogeneity=median([job["heterogeneity"] for job in good_open]),
            latency_p50_s=median(latencies),
            latency_tail_s=tail,
        )
        record["latency_tail"] = {"percentile": tail_q, "samples": n}
    if all(job["ok"] for job in burst):
        metrics["burst_jobs_per_s"] = len(burst) / burst_elapsed
    by_id = {job["job_id"]: job for job in good_all}
    overheads = [
        stats["run"][j] - by_id[j]["solver_s"] for j in by_id if j in stats["run"]
    ]
    metrics.update(
        {
            "certify.busy_s": median(load.certify_s) if load.certify_s else 0.0,
            "certify.violations": sum(job.get("violations", 0) for job in all_jobs),
            "service.api.submit_s": median(load.submit_s),
            "service.api.read_s": median(load.read_s + reads),
            "service.worker.queue_wait_s": median(list(stats["queue_wait"].values()) or [0.0]),
            "service.worker.run_s": median(list(stats["run"].values()) or [0.0]),
            "service.worker.overhead_s": median(overheads or [0.0]),
            "service.store.journal_bytes_per_job": stats["journal_bytes_per_job"],
            "service.store.journal_records_per_job": stats["journal_records_per_job"],
            "obs.events.bytes_per_job": stats["events_bytes_per_job"],
            "fact.checkpointing.bytes_per_job": stats["checkpoint_bytes_per_job"],
            "service.worker.retries": sum(
                max(job.get("attempts", 1) - 1, 0) for job in all_jobs
            ),
        }
    )
    record["metrics"] = metrics
    record["scrapes"] = len(reads)
    record["scrape_errors"] = scraper.errors
    return record
