"""Start, probe and stop `wgrap serve` deployments over loopback TCP."""

import json
import socket
import statistics
import subprocess
import time


def connect(addr):
    """A TCP connection to HOST:PORT that sends each request line at once."""
    host, port = addr.rsplit(":", 1)
    sock = socket.create_connection((host, int(port)), timeout=120)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class LineClient:
    """One blocking NDJSON connection: a request line out, a response line in."""

    def __init__(self, addr):
        self.sock = connect(addr)
        self.reader = self.sock.makefile("rb")

    def call(self, request):
        self.sock.sendall(json.dumps(request).encode() + b"\n")
        line = self.reader.readline()
        if not line:
            raise RuntimeError(f"server closed the connection on {request}")
        return json.loads(line)

    def close(self):
        self.reader.close()
        self.sock.close()


def spawn(binary, args, log_path, timeout=120):
    """Start `wgrap <args>` and return (process, address) once it listens."""
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [binary, *args], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log
        )
    deadline = time.monotonic() + timeout
    while True:
        with open(log_path, "rb") as log:
            text = log.read().decode(errors="replace")
        # stderr arrives in pieces; only a line with its newline is whole.
        for line in text.split("\n")[:-1]:
            if " listening on " in line:
                return proc, line.rsplit(" ", 1)[1]
        if proc.poll() is not None or time.monotonic() > deadline:
            stop([proc])
            raise RuntimeError(f"wgrap {' '.join(args)} did not start:\n{text}")
        time.sleep(0.001)


def stop(procs):
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class Deployment:
    """A `wgrap serve` over one instance file, or `--router` over shard servers.

    `shard_files` empty means one plain server on `instance_path`; otherwise
    one server per shard file plus a router in front of them.
    """

    def __init__(self, binary, workdir, instance_path, shard_files=()):
        self.binary = binary
        self.workdir = workdir
        self.instance_path = instance_path
        self.shard_files = list(shard_files)
        self.procs = []
        self.addr = None
        self.shard_addrs = []

    def _log(self, name):
        return f"{self.workdir}/{name}.log"

    def start(self):
        """Start every process; return seconds until the front listens.

        `serve` listens once its store is built and a router once it has
        probed its shards, so this is the set-up time. The `stats` probe
        after it only checks the front answers: its reply waits on the
        wire the way every reply does, which would swamp a small set-up.
        """
        began = time.perf_counter()
        listen = ["--listen", "127.0.0.1:0"]
        try:
            if not self.shard_files:
                proc, self.addr = spawn(
                    self.binary, ["serve", self.instance_path, *listen], self._log("serve")
                )
                self.procs.append(proc)
            else:
                self.shard_addrs = []
                for s, path in enumerate(self.shard_files):
                    proc, addr = spawn(self.binary, ["serve", path, *listen], self._log(f"shard{s}"))
                    self.procs.append(proc)
                    self.shard_addrs.append(addr)
                proc, self.addr = spawn(
                    self.binary,
                    ["serve", "--router", ",".join(self.shard_addrs), *listen],
                    self._log("router"),
                )
                self.procs.append(proc)
            ready = time.perf_counter() - began
            probe = LineClient(self.addr)
            reply = probe.call({"v": 2, "op": "stats"})
            probe.close()
        except BaseException:
            self.close()
            raise
        if not reply.get("ok"):
            self.close()
            raise RuntimeError(f"stats probe failed: {reply}")
        return ready

    def close(self):
        # The router goes first so it never sees a shard vanish mid-request.
        stop(self.procs[::-1])
        self.procs = []

    def metric_addrs(self):
        """The processes whose registries count the serving work."""
        return self.shard_addrs or [self.addr]


def start_measured(deployment, repeats, seconds):
    """Start at least `repeats` times and for at least `seconds`, keeping the
    last start running; return the median set-up seconds."""
    times = []
    began = time.perf_counter()
    while len(times) < repeats or time.perf_counter() - began < seconds:
        if times:
            deployment.close()
        times.append(deployment.start())
    return statistics.median(times)
