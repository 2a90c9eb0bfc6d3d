"""Closed-loop NDJSON load over loopback TCP.

Each client is one connection with at most one request outstanding: it
sends its next request as soon as the previous response arrives. One
thread drives every connection through a selector, so the generator adds
no lock contention of its own. Response bytes are kept raw and parsed
after the timed window.
"""

import selectors
import time

from server import connect


class Record:
    """One finished request: what was asked, when, and the raw reply line."""

    __slots__ = ("meta", "start", "end", "raw")

    def __init__(self, meta, start):
        self.meta = meta
        self.start = start
        self.end = None
        self.raw = None


class _Conn:
    def __init__(self, addr, next_request):
        self.sock = connect(addr)
        self.next_request = next_request
        self.buf = b""
        self.pending = None


def run(addr, clients, warmup_s, seconds, on_measure=None, stall_s=120.0):
    """Drive `clients` for `warmup_s + seconds`.

    A client is a function returning its next request as `(meta,
    line_bytes)`. Returns (records, measured_from): every finished request,
    and the perf_counter time from which requests count. `on_measure`, if
    given, is called once when the warm-up ends. No request starts after
    the window; outstanding ones are awaited (at most `stall_s`).
    """
    sel = selectors.DefaultSelector()
    conns = []
    try:
        for client in clients:
            conns.append(_Conn(addr, client))
            sel.register(conns[-1].sock, selectors.EVENT_READ, conns[-1])
        return _drive(sel, conns, warmup_s, seconds, on_measure, stall_s)
    finally:
        for conn in conns:
            conn.sock.close()
        sel.close()


def _drive(sel, conns, warmup_s, seconds, on_measure, stall_s):
    records = []
    began = time.perf_counter()
    measured_from = began + warmup_s
    stop_at = measured_from + seconds

    def send(conn):
        meta, line = conn.next_request()
        conn.pending = Record(meta, time.perf_counter())
        conn.sock.sendall(line)

    for conn in conns:
        send(conn)
    while any(c.pending for c in conns):
        now = time.perf_counter()
        if now > stop_at + stall_s:
            raise RuntimeError("responses stalled past the window")
        timeout = 1.0
        if on_measure:
            if now >= measured_from:
                on_measure()
                on_measure = None
            else:
                timeout = measured_from - now
        for key, _ in sel.select(timeout):
            conn = key.data
            data = conn.sock.recv(1 << 20)
            end = time.perf_counter()
            if not data:
                raise RuntimeError("server closed a client connection")
            conn.buf += data
            newline = conn.buf.find(b"\n")
            if newline < 0:
                continue
            rec = conn.pending
            rec.end = end
            rec.raw = conn.buf[:newline]
            conn.buf = conn.buf[newline + 1 :]
            conn.pending = None
            records.append(rec)
            if end < stop_at:
                send(conn)
    return records, measured_from
