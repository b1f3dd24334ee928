"""serve: TCPLS sessions over real kernel sockets on loopback.

One round builds a ``SocketDriver`` hosting a ``MultiSessionServer``
that echoes every stream, then runs two client sessions in a closed
loop: each sends its next request only when the echo of the previous
one has fully returned.  Handshakes are psk_ke, the cipher is
ChaCha20-Poly1305.  The round is 500 small requests (64-512 bytes)
per client, each client closing and reopening its session every 125
requests, then 8 bulk requests of 64 KiB per client.  Both clients
close, and the server must drain.  At most two TCP connections are
open at any time: a closing client reconnects only once the server has
dropped its old connection.

The last operation of every round is the hostile peer: one of two
fresh, attached sessions sends a TLS record header announcing 65535
bytes.  The server should close only that connection and keep serving
the other session.  It runs after the measured work and any exception
it lets escape is caught here, so it cannot disturb the timed phases.

The seed generates every request payload and small-request length.
"""

import random
import statistics
import time

import checks

IMPORTS = ("repro.core.drivers.sockets", "repro.core.drivers.multi",
           "repro.core.engine")
SIMULATED = False
#: ``latency_ms`` is the median real small-request round trip
LATENCY = "median"

PSK = b"perfbench-serve-psk"
CIPHER = ("chacha20poly1305",)
CLIENTS = 2
SMALL_REQUESTS = 500
SMALL_MIN, SMALL_MAX = 64, 512
RECONNECT_EVERY = 125
BULK_REQUESTS = 8
BULK_BYTES = 64 << 10
#: a TLS application-data record header whose length is 65535, past
#: the 2^14 + 256 bytes RFC 8446 allows
HOSTILE_HEADER = b"\x17\x03\x03\xff\xff"
#: loop timeout (s) for any phase; a hang fails the run instead
TIMEOUT = 60.0


def prepare(seed):
    rng = random.Random(seed)
    small = [[rng.randbytes(rng.randint(SMALL_MIN, SMALL_MAX))
              for _ in range(SMALL_REQUESTS)] for _ in range(CLIENTS)]
    bulk = [[rng.randbytes(BULK_BYTES) for _ in range(BULK_REQUESTS)]
            for _ in range(CLIENTS)]
    return {"small": small, "bulk": bulk,
            "probe": rng.randbytes(SMALL_MAX)}


class Server:
    """The echo server of one round."""

    def __init__(self):
        from repro.core.drivers.multi import MultiSessionServer
        from repro.core.drivers.sockets import SocketDriver

        self.driver = SocketDriver(name="perfbench-serve")
        self.mux = MultiSessionServer(self.driver, 0, PSK, auto_retire=True,
                                      cipher_names=CIPHER)
        self.mux.on_session = self._serve
        self.handshakes = 0

    def _serve(self, session):
        self.handshakes += 1
        session.on_stream_data = lambda stream: stream.send(stream.recv())

    def run_until(self, predicate):
        self.driver.run_until(predicate, timeout=TIMEOUT)

    def close(self):
        self.driver.close()


class Client:
    """One closed-loop client: a session, one request stream, the
    request queue, and the outcome of every request."""

    def __init__(self, server, name, clients):
        self.server = server
        self.name = name
        self.clients = clients
        self.session = None
        self.stream = None
        self.queue = []
        self.reconnect_every = None
        self.sent_on_session = 0
        self.request = None
        self.echo = bytearray()
        self.t_sent = None
        self.t_connect = None
        self.closing = False
        self.opened = 0
        self.handshake_s = []
        self.latency_s = []
        self.outcomes = []

    @property
    def idle(self):
        return self.request is None and not self.queue and not self.closing

    def connect(self):
        from repro.core.engine import TcplsClientEngine

        driver = self.server.driver
        self.session = TcplsClientEngine(driver, PSK, cipher_names=CIPHER,
                                         key_exchange="psk")
        self.session.on_ready = self._on_ready
        self.session.on_stream_data = self._on_stream_data
        self.stream = None
        self.sent_on_session = 0
        self.opened += 1
        self.t_connect = time.perf_counter()
        self.session.connect(None, driver.endpoint("127.0.0.1",
                                                   self.server.mux.port))

    def submit(self, payloads, reconnect_every=None):
        self.queue.extend(payloads)
        self.reconnect_every = reconnect_every
        if self.session is not None and self.session.ready:
            self._send_next()

    def _on_ready(self, _session):
        self.handshake_s.append(time.perf_counter() - self.t_connect)
        self.stream = self.session.create_stream(self.session.conns[0])
        self._send_next()

    def _send_next(self):
        if self.request is not None or not self.queue:
            return
        if self.reconnect_every and \
                self.sent_on_session >= self.reconnect_every:
            self.session.close()
            self.closing = True
            return
        self.request = self.queue.pop(0)
        self.echo = bytearray()
        self.sent_on_session += 1
        self.t_sent = time.perf_counter()
        self.stream.send(self.request)

    def _on_stream_data(self, stream):
        self.echo.extend(stream.recv())
        if self.request is None or len(self.echo) < len(self.request):
            return
        self.latency_s.append(time.perf_counter() - self.t_sent)
        self.outcomes.append(checks.check_echo(self.request,
                                               bytes(self.echo)))
        self.request = None
        self._send_next()

    def poll(self):
        """Reopen the session once the server dropped the old one (it
        holds one table entry per client that is not closing)."""
        if not self.closing:
            return
        active = sum(1 for c in self.clients if not c.closing)
        if len(self.server.mux.table) <= active:
            self.closing = False
            self.connect()


def drive(server, clients):
    """Step the loop until every client has drained its queue."""
    deadline = time.perf_counter() + TIMEOUT
    while not all(c.idle for c in clients):
        if time.perf_counter() > deadline:
            raise TimeoutError("closed loop stalled")
        server.driver.step()
        for client in clients:
            client.poll()


def hostile_peer(probe):
    """The hostile-peer operation; returns its failure or ``None``."""
    server = Server()
    try:
        victim = Client(server, "victim", [])
        bystander = Client(server, "bystander", [])
        for client in (victim, bystander):
            client.connect()
            client.submit([probe])
        # One echo each: both sessions are attached on the server side.
        server.run_until(lambda: len(victim.outcomes) == 1
                         and len(bystander.outcomes) == 1)
        victim.session.conns[0].tcp.send(HOSTILE_HEADER)
        bystander.submit([probe])
        victim_tcp = victim.session.conns[0].tcp
        try:
            server.run_until(lambda: bystander.idle and
                             not victim_tcp.is_open())
        except Exception as exc:  # the loop must survive any peer bytes
            return "server loop stopped: %s: %s" % (type(exc).__name__, exc)
        return bystander.outcomes[1]
    finally:
        server.close()


def warmup(inputs):
    server = Server()
    try:
        client = Client(server, "warmup", [])
        client.connect()
        client.submit([inputs["probe"]])
        server.run_until(lambda: client.stream is not None
                         and client.idle)
    finally:
        server.close()


def run_round(inputs):
    result = checks.Round(real_time=True)
    server = Server()
    try:
        clients = []
        for i in range(CLIENTS):
            clients.append(Client(server, "client%d" % i, clients))
        t0 = time.perf_counter()
        for client, payloads in zip(clients, inputs["small"]):
            client.connect()
            client.submit(payloads, reconnect_every=RECONNECT_EVERY)
        drive(server, clients)
        t1 = time.perf_counter()
        for client, payloads in zip(clients, inputs["bulk"]):
            client.submit(payloads)
        drive(server, clients)
        t2 = time.perf_counter()
        for client in clients:
            client.session.close()
        server.run_until(lambda: not server.mux.session_count()
                         and not len(server.mux.table))
        drained = checks.check_server_drained(
            len(server.mux.table), server.mux.session_count(),
            server.handshakes, sum(c.opened for c in clients))
    finally:
        server.close()

    small = SMALL_REQUESTS * CLIENTS
    for client in clients:
        for i, outcome in enumerate(client.outcomes):
            kind = "small" if i < SMALL_REQUESTS else "bulk"
            result.op("%s/%s%d" % (client.name, kind, i), outcome)
        for i in range(client.opened):
            result.op("%s/session%d" % (client.name, i), drained)
        small_latency = client.latency_s[:SMALL_REQUESTS]
        result.latency_ms.extend(t * 1e3 for t in small_latency)
        result.detail("handshake_ms", "ms",
                      *(t * 1e3 for t in client.handshake_s))
    result.op("hostile-peer", hostile_peer(inputs["probe"]))
    result.wall_s = t2 - t0
    result.goodput_bytes = sum(len(p) for ps in inputs["bulk"] for p in ps)
    result.goodput_s = t2 - t1
    result.detail("req_per_s", "req/s", small / (t1 - t0))
    return result


def details(rounds):
    requests = sorted(t for r in rounds for t in r.latency_ms)
    handshakes = sorted(checks.pooled(rounds, "handshake_ms"))
    rates = checks.pooled(rounds, "req_per_s")
    return {
        "req_per_s": (statistics.median(rates), "req/s",
                      "n=%d rounds" % len(rates)),
        "req_p50_ms": (statistics.median(requests), "ms",
                       "n=%d" % len(requests)),
        "req_p99_ms": (checks.percentile(requests, 0.99), "ms",
                       "n=%d, %d beyond" % (
                           len(requests),
                           len(requests) - int(0.99 * len(requests)) - 1)),
        "bulk_MBps": (checks.end_to_end(rounds)["goodput_MBps"][0], "MB/s",
                      "echoed payload (goodput_MBps)"),
        "handshake_p50_ms": (checks.percentile(handshakes, 0.50), "ms",
                             "n=%d" % len(handshakes)),
    }
