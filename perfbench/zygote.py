"""One set-up of a workload: a fresh interpreter that forks repetitions.

Started by ``run.py``; never run by hand.  Argument: one JSON object with
the workload name, seed, the run's work directory, the parent's monotonic
launch time, the monotonic time by which the last repetition must end,
and whether to trace every second repetition.

The interpreter imports the package and builds the inputs once, then
forks one child per repetition.  Each child starts from the state a fresh
interpreter reaches after its imports: nothing has run yet, so every
in-process memo is empty, and the child gets its own empty
``REPRO_CACHE_DIR`` and journal directory, removed when it ends.  The
children run one at a time, on the CPU the set-up is pinned to, and the
host probe (:class:`HostProbe`) is timed between each two of them.
Prints one JSON line per repetition.

With ``"mode": "journal"`` it forks a single untimed child that runs the
sequential workload into ``journal_source`` (the journal the replay audit
reads) and prints nothing.
"""

import json
import os
import resource
import shutil
import statistics
import struct
import sys
import time
import traceback


def cpu_seconds() -> float:
    """User + system CPU of this process and its children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def pin_to_current_cpu() -> None:
    """Pin this process, and so every repetition it forks, to its CPU.

    A shared host slows each virtual CPU by its own, changing amount.
    Pinned, the host probe measures the CPU the repetition runs on; else
    the forked child tends to start on the other, idle one.
    """
    with open("/proc/self/stat") as stat:
        cpu = int(stat.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})


class HostProbe:
    """Fixed pieces of work, timed in a helper process on request.

    Calling the probe returns the seconds each of :data:`PROBE_PARTS`
    took just now.  The helper is forked once and shares this process's
    CPU, so it sees the host as the repetitions do, while its memory
    shows neither in their peak RSS nor in this process's allocator.
    """

    def __init__(self) -> None:
        check_single_thread()
        request_read, self._request = os.pipe()
        self._reply, reply_write = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        self.pid = os.fork()
        if self.pid == 0:  # the helper: serves until the request pipe closes
            status = 1
            try:
                os.close(self._request)
                os.close(self._reply)
                _serve(request_read, reply_write)
                status = 0
            finally:
                os._exit(status)
        os.close(request_read)
        os.close(reply_write)

    def __call__(self) -> list:
        os.write(self._request, b"p")
        size = 8 * len(PROBE_PARTS)
        payload = b""
        while len(payload) < size:
            chunk = os.read(self._reply, size - len(payload))
            if not chunk:
                raise RuntimeError("host probe helper exited")
            payload += chunk
        return list(struct.unpack(f"{len(PROBE_PARTS)}d", payload))

    def close(self) -> None:
        os.close(self._request)
        os.close(self._reply)
        os.waitpid(self.pid, 0)


#: What the probe times, each about 6-14 ms on a quiet host: parsing,
#: compiling, JSON and diffing in the standard library, a small
#: event-driven queue simulation in plain Python, and a loop of small
#: NumPy calls.  A tight loop slows less than the package under some
#: neighbours; code spread as widely as the package's tracks it better.
PROBE_PARTS = ("stdlib", "events", "numpy_calls")


def _probe_parts():
    """The callables :data:`PROBE_PARTS` names, with their fixed inputs."""
    import ast
    import difflib
    import heapq
    import json as json_module
    import random

    import numpy as np

    source = "".join(
        f"def f{i}(x, y={i}):\n"
        f"    terms = [x * k + y for k in range({i % 7 + 1})]\n"
        f"    return {{'value': sum(terms), 'name': 'f{i}', 'big': x > {i}}}\n\n"
        for i in range(40)
    )
    lines = source.splitlines()
    document = {"rows": [{"id": i, "name": f"row{i}", "values": list(range(i % 17))}
                         for i in range(400)]}

    def stdlib():
        for _ in range(2):
            compile(ast.parse(source), "probe", "exec")
            json_module.loads(json_module.dumps(document))
            difflib.SequenceMatcher(None, lines[:120], lines[40:160]).ratio()
            sorted(lines, key=lambda line: line[::-1])

    class Job:
        __slots__ = ("arrival", "size")

        def __init__(self, arrival, size):
            self.arrival = arrival
            self.size = size

    def events():
        rng = random.Random(7)
        heap = [(rng.expovariate(1.0), 0, Job(0.0, 1.0))]
        queue, busy_until, waits, sequence = [], 0.0, [], 1
        while sequence < 6000:
            now, _, job = heapq.heappop(heap)
            job.arrival = now
            start = max(now, busy_until)
            busy_until = start + job.size
            queue.append(job)
            if len(queue) > 8:
                waits.append(sum(j.size for j in queue[-8:]))
                del queue[:4]
            heapq.heappush(heap, (now + rng.expovariate(1.25), sequence,
                                  Job(now, rng.random() * 1.5)))
            sequence += 1
        return sum(waits)

    generator = np.random.default_rng(7)
    grid = np.arange(64, dtype=float)

    def numpy_calls():
        for _ in range(1500):
            draws = generator.random(64)
            np.searchsorted(np.cumsum(draws), grid[:8])
            np.where(draws > 0.5, draws, grid).sum()

    return stdlib, events, numpy_calls


def _serve(requests: int, replies: int) -> None:
    parts = _probe_parts()
    for part in parts:  # untimed: a fresh helper's first pass runs cold
        part()
    while os.read(requests, 1):
        times = []
        for part in parts:
            start = time.perf_counter()
            part()
            times.append(time.perf_counter() - start)
        os.write(replies, struct.pack(f"{len(times)}d", *times))


def repetition(make, index: int, rep_dir: str, traced: bool) -> dict:
    """The body of one forked child: set up, time the call, measure."""
    cache = os.path.join(rep_dir, "cache")
    os.makedirs(cache)
    os.environ["REPRO_CACHE_DIR"] = cache
    call = make(os.path.join(rep_dir, "journal"))
    tracer = None
    if traced:
        import hooks

        tracer = hooks.install()
    start = time.monotonic()
    cpu_start = cpu_seconds()
    wall_start = time.perf_counter()
    _text, outputs, slots = call()
    wall_s = time.perf_counter() - wall_start
    cpu_s = cpu_seconds() - cpu_start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record = {
        "index": index,
        "traced": traced,
        "started": start,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "slots": slots,
        "outputs": outputs,
    }
    if tracer is not None:
        record["layers"] = dict(tracer.values)
        record["layers"]["trace.unattributed_s"] = wall_s - tracer.top_s
        record["absent"] = tracer.absent
    return record


def check_single_thread() -> None:
    """Refuse to fork while this process runs other threads."""
    # Forking a process that runs threads can copy a held lock into the
    # child; run.py pins the BLAS pools to one thread so there are none.
    threads = len(os.listdir("/proc/self/task"))
    if threads != 1:
        raise RuntimeError(f"set-up runs {threads} threads; cannot fork safely")


def fork_one(body) -> dict:
    """Run ``body()`` in a forked child; returns the record it sends back."""
    check_single_thread()
    read_end, write_end = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:  # the child: exits here, never returns into the caller
        status = 1
        try:
            os.close(read_end)
            try:
                payload, status = json.dumps(body()).encode(), 0
            except Exception:
                payload = json.dumps({"error": traceback.format_exc()}).encode()
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(payload)
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    try:
        record = json.loads(payload)
    except ValueError:
        record = {"error": f"child exited with status {status} and no record"}
    return record


def main() -> int:
    job = json.loads(sys.argv[1])
    pin_to_current_cpu()
    import workloads  # the script directory is first on sys.path

    if job.get("mode") == "journal":
        make, _ = workloads.prepare("sequential_ci", job["seed"])
        record = fork_one(lambda: {"outputs": make(job["journal_source"])()[1]})
        if "error" in record:
            sys.stderr.write(record["error"])
            return 1
        return 0

    make, import_s = workloads.prepare(
        job["workload"], job["seed"], job.get("journal_source"))
    durations = []
    index = 0
    probe_start = time.monotonic()
    probe = HostProbe()
    try:
        after = probe()
        probe_overhead = time.monotonic() - probe_start
        while True:
            traced = bool(job["trace"]) and index % 2 == 1
            rep_dir = os.path.join(job["work"], f"rep-{job['setup']}-{index}")
            # The probe after one repetition is the probe before the next.
            before = after
            launched = time.monotonic()
            record = fork_one(lambda: repetition(make, index, rep_dir, traced))
            after = probe()
            durations.append(time.monotonic() - launched)
            shutil.rmtree(rep_dir, ignore_errors=True)
            record.update(index=index, traced=traced, probe=[before, after],
                          import_s=import_s)
            if index == 0 and "started" in record:
                # The probe before it is the benchmark's, not the set-up's.
                record["setup_s"] = (record["started"] - job["launched"]
                                     - probe_overhead)
            print(json.dumps(record), flush=True)
            index += 1
            if index < job["min_repetitions"]:
                continue
            if time.monotonic() + statistics.median(durations) > job["until"]:
                return 0
    finally:
        probe.close()


if __name__ == "__main__":
    sys.exit(main())
