"""Driving the TLS/CBJX baselines over the simulated network (ablation A4).

The TLS handshake is pushed through real network frames so its round
trips are charged to the virtual clock, exactly like the secure
primitives' exchanges.
"""

from __future__ import annotations

from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import KeyPair
from repro.errors import TransportError
from repro.jxta.transport.cbjx import CbjxTransport
from repro.jxta.transport.tls import TlsClient, TlsServer
from repro.net.base import Frame, Transport

# 1-byte frame tags for the raw handshake/record protocol.
_T_HELLO = b"\x01"
_T_KEYEX = b"\x02"
_T_RECORD = b"\x03"


class TlsEchoServer:
    """A raw endpoint that performs the TLS handshake and echoes records."""

    def __init__(self, network: Transport, address: str, keys: KeyPair,
                 drbg: HmacDrbg) -> None:
        self.network = network
        self.address = address
        self.keys = keys
        self._drbg = drbg
        self._sessions: dict[str, TlsServer] = {}
        network.register(address, self._on_frame)

    def _on_frame(self, frame: Frame) -> bytes | None:
        tag, body = frame.payload[:1], frame.payload[1:]
        if tag == _T_HELLO:
            server = TlsServer(self.keys, self._drbg.fork(frame.src.encode()))
            self._sessions[frame.src] = server
            return _T_HELLO + server.hello(body)
        if tag == _T_KEYEX:
            server = self._sessions.get(frame.src)
            if server is None:
                return None
            return _T_KEYEX + server.finish(body)
        if tag == _T_RECORD:
            server = self._sessions.get(frame.src)
            if server is None or server.record is None:
                return None
            plain = server.record.unprotect(body)
            return _T_RECORD + server.record.protect(plain)
        return None


class TlsClientDriver:
    """Client side: handshake over the network, then echo round trips."""

    def __init__(self, network: Transport, address: str, server_address: str,
                 drbg: HmacDrbg) -> None:
        self.network = network
        self.address = address
        self.server_address = server_address
        self.client = TlsClient(drbg)
        network.register(address, lambda frame: None)

    def handshake(self) -> None:
        """The 2-RTT TLS negotiation the paper contrasts with (§4.3)."""
        hello_resp = self.network.request(
            self.address, self.server_address, _T_HELLO + self.client.hello())
        if hello_resp[:1] != _T_HELLO:
            raise TransportError("unexpected TLS handshake response")
        keyex = self.client.key_exchange(hello_resp[1:])
        finish_resp = self.network.request(
            self.address, self.server_address, _T_KEYEX + keyex)
        if finish_resp[:1] != _T_KEYEX:
            raise TransportError("unexpected TLS handshake response")
        self.client.verify_finish(finish_resp[1:])

    def echo(self, payload: bytes) -> bytes:
        """One protected round trip over the established channel."""
        if self.client.record is None:
            raise TransportError("TLS channel not established")
        record = self.client.record.protect(payload)
        resp = self.network.request(self.address, self.server_address,
                                    _T_RECORD + record)
        if resp[:1] != _T_RECORD:
            raise TransportError("unexpected TLS record response")
        return self.client.record.unprotect(resp[1:])


class CbjxEchoPair:
    """Two endpoints exchanging CBJX-encapsulated datagrams."""

    def __init__(self, network: Transport, addr_a: str, addr_b: str,
                 keys_a: KeyPair, keys_b: KeyPair,
                 drbg: HmacDrbg) -> None:
        self.network = network
        self.addr_a = addr_a
        self.addr_b = addr_b
        self.transport_a = CbjxTransport(keys_a, drbg.fork(b"a"))
        self.transport_b = CbjxTransport(keys_b, drbg.fork(b"b"))
        self.received_b: list[bytes] = []
        network.register(addr_a, lambda frame: None)
        network.register(addr_b, self._on_b)

    def _on_b(self, frame: Frame) -> bytes | None:
        self.received_b.append(
            self.transport_b.unwrap(frame.payload, peer=frame.src, local=self.addr_b))
        return None

    def send_a_to_b(self, payload: bytes) -> bool:
        wire = self.transport_a.wrap(payload, peer=self.addr_b, local=self.addr_a)
        return self.network.send(self.addr_a, self.addr_b, wire)
