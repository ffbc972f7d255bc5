"""grid-info-server with a span recorder around its layer boundaries.

    python traced_server.py SPANS.jsonl <grid-info-server arguments>

Imports ``repro``, wraps a fixed table of public callables, then calls
``repro.tools.grid_info_server.main`` unchanged.  No product source is
touched: methods are wrapped on their classes, module functions are
rebound in every ``repro`` module that imported them by name.

A span is ``[name, start, end, id, parent, request, n, self_cpu]``.
*start*/*end* are ``time.monotonic()`` seconds (one clock for every
process on the host); *parent* is the span that was open on the calling
thread — or, for work that hops threads (an executor task, a child's
answer), the span that was open where the work was handed over;
*request* is ``c<connection>:<LDAP message id>`` of the client request
being served, carried across those hops; *n* is a count the boundary
knows (bytes, entries).  *self_cpu* is the thread CPU time the span
used minus what its child spans used: under the interpreter lock a
span's wall time includes waiting for other threads, so wall time says
how long a step blocked and CPU time says what it cost.  Spans stay in
memory and are written as JSON lines on SIGTERM.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import signal
import sys
import threading
import time

_now = time.monotonic
_cpu = time.thread_time
_ids = itertools.count(1)
_tls = threading.local()
SPANS: list = []


def _stack() -> list:
    try:
        return _tls.stack
    except AttributeError:
        _tls.stack = []
        _tls.req = ""
        return _tls.stack


def span(name, fn, count=None):
    """*fn* recorded as one span; ``count(result, args)`` fills *n*."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _stack()
        frame = [next(_ids), 0.0]  # id, CPU spent in child spans
        parent = stack[-1][0] if stack else 0
        stack.append(frame)
        n = 0
        start, cpu0 = _now(), _cpu()
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                n = count(result, args)
            return result
        finally:
            cpu, end = _cpu() - cpu0, _now()
            stack.pop()
            if stack:
                stack[-1][1] += cpu
            SPANS.append((name, start, end, frame[0], parent, _tls.req, n, cpu - frame[1]))

    return wrapper


def carried(name, fn):
    """A callback that runs later, maybe on another thread.

    Called inside another span it nests there; called on a bare thread
    it hangs off the span open *now*, at hand-over.  Either way it runs
    under the request id current now.
    """
    stack = _stack()
    origin = stack[-1][0] if stack else 0
    req = _tls.req

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _stack()
        frame = [next(_ids), 0.0]
        parent = stack[-1][0] if stack else origin
        saved, _tls.req = _tls.req, req
        stack.append(frame)
        start, cpu0 = _now(), _cpu()
        try:
            return fn(*args, **kwargs)
        finally:
            cpu, end = _cpu() - cpu0, _now()
            stack.pop()
            if stack:
                stack[-1][1] += cpu
            _tls.req = saved
            SPANS.append((name, start, end, frame[0], parent, req, 0, cpu - frame[1]))

    return wrapper


def _mark(name, start, end):
    """An interval that is waiting, not work: no CPU, no children."""
    stack = _stack()
    SPANS.append((name, start, end, next(_ids), stack[-1][0] if stack else 0, _tls.req, 0, 0.0))


# -- the wrap table ------------------------------------------------------------


def _wrap_method(cls, attr, name, count=None):
    setattr(cls, attr, span(name, getattr(cls, attr), count))


def _rebind(original, wrapped):
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _len_result(result, _args):
    return len(result) if result is not None else 0


def install() -> None:
    from repro.giis.core import GiisBackend
    from repro.grip.registry import SoftStateRegistry
    from repro.gris.cache import ProviderCache
    from repro.gris.core import GrisBackend
    from repro.gris.provider import InformationProvider
    from repro.ldap import filter as filter_mod
    from repro.ldap import protocol
    from repro.ldap.client import LdapClient
    from repro.ldap.dit import DIT
    from repro.ldap.executor import RequestExecutor
    from repro.ldap.pool import LdapClientPool
    from repro.ldap.storage.wal import WalEngine
    from repro.net.reactor import ReactorConnection

    # net.reactor: every send, and the receive callback of every
    # connection, named after whose callback it is.
    _wrap_method(ReactorConnection, "send", "net.reactor.send",
                 lambda _r, args: len(args[1]))
    conn_ids = itertools.count(1)
    owners = {"_ServerConnection": "ldap.server", "LdapClient": "ldap.client"}
    set_receiver = ReactorConnection.set_receiver

    def traced_set_receiver(self, callback):
        owner = type(getattr(callback, "__self__", None)).__name__
        timed = span(f"{owners.get(owner, 'net.reactor')}.on_message", callback,
                     lambda _r, args: len(args[0]))
        conn = f"c{next(conn_ids)}"

        def receiver(raw):
            _stack()
            _tls.req = conn
            try:
                timed(raw)
            finally:
                _tls.req = ""

        set_receiver(self, receiver)

    ReactorConnection.set_receiver = traced_set_receiver

    # ldap.protocol / ldap.filter: module functions.
    decode = protocol.decode_message

    def name_request(message, _args):
        # The first decode inside a receive callback names the request.
        if _tls.req and ":" not in _tls.req:
            _tls.req = f"{_tls.req}:{message.message_id}"
        return 0

    _rebind(decode, span("ldap.protocol.decode_message", decode, name_request))
    for fn in (protocol.encode_message, protocol.encode_message_with_op,
               protocol.encode_search_entry):
        _rebind(fn, span(f"ldap.protocol.{fn.__name__}", fn, _len_result))
    _rebind(filter_mod.compile_filter,
            span("ldap.filter.compile_filter", filter_mod.compile_filter))

    # ldap.executor (and the GRIS provider pool, same class): time
    # queued vs time running, carried across the thread hop.
    submit = RequestExecutor.submit

    def traced_submit(self, task):
        prefix = self.metric_prefix
        queued = _now()

        def run():
            _mark(f"{prefix}.wait", queued, _now())
            task()

        return submit(self, carried(f"{prefix}.run", run))

    RequestExecutor.submit = traced_submit

    # Backends: the stream entry point with the front end's callbacks.
    for cls, layer in ((GrisBackend, "gris.core"), (GiisBackend, "giis.core")):
        stream = cls.submit_search_stream

        def traced_stream(self, req, ctx, on_entry, on_done, _stream=stream):
            return _stream(self, req, ctx,
                           carried("ldap.server.on_entry", on_entry),
                           carried("ldap.server.on_done", on_done))

        cls.submit_search_stream = span(f"{layer}.search", traced_stream)
        cls.add = span(f"{layer}.add", cls.add)

    _wrap_method(ProviderCache, "get", "gris.cache.get",
                 lambda result, _args: len(result[0]))
    pending = [InformationProvider]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "provide" in vars(cls):
            _wrap_method(cls, "provide", "gris.provider.provide", _len_result)

    _wrap_method(DIT, "search", "ldap.dit.search", _len_result)
    _wrap_method(DIT, "candidates", "ldap.dit.candidates", _len_result)
    for attr in ("add", "replace", "delete"):
        _wrap_method(DIT, attr, f"ldap.dit.{attr}")

    _wrap_method(GiisBackend, "local_entries", "giis.core.local_entries", _len_result)
    _wrap_method(GiisBackend, "apply_grrp", "giis.core.apply_grrp")
    _wrap_method(LdapClientPool, "client_for", "ldap.pool.client_for")
    _wrap_method(SoftStateRegistry, "apply", "grip.registry.apply")
    _wrap_method(WalEngine, "apply", "ldap.storage.wal.apply")
    _wrap_method(WalEngine, "replay", "ldap.storage.wal.replay", lambda n, _args: n)
    _wrap_method(WalEngine, "snapshot", "ldap.storage.wal.snapshot")

    # ldap.client as the GIIS uses it: issue cost, and per child the
    # time to its first frame and to its Done.
    search_async = LdapClient.search_async

    def traced_search_async(self, req, on_done, controls=(), deadline=None,
                            trace=None, on_entry=None):
        issued = _now()
        first = []

        def entry(raw):
            if not first:
                first.append(True)
                _mark("ldap.client.child_ttfb", issued, _now())
            on_entry(raw)

        def done(outcome, error):
            _mark("ldap.client.child_rtt", issued, _now())
            on_done(outcome, error)

        return search_async(
            self, req, carried("giis.core.child_done", done), controls=controls,
            deadline=deadline, trace=trace,
            on_entry=carried("giis.core.child_entry", entry) if on_entry else None,
        )

    LdapClient.search_async = span("ldap.client.search_async", traced_search_async)


def _dump(path: str) -> None:
    spans = list(SPANS)
    tmp = f"{path}.tmp"
    with open(tmp, "w") as out:
        out.write(json.dumps({"pid": os.getpid(), "spans": len(spans)}) + "\n")
        for i in range(0, len(spans), 4096):
            out.write("\n".join(json.dumps(s) for s in spans[i:i + 4096]) + "\n")
    os.replace(tmp, path)


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    path, argv = sys.argv[1], sys.argv[2:]
    from repro.tools import grid_info_server

    install()

    def on_term(_signum, _frame):
        _dump(path)
        os._exit(0)  # no shutdown work: the runner treats this as a crash

    signal.signal(signal.SIGTERM, on_term)
    return grid_info_server.main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
