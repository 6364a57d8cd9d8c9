#!/usr/bin/env python3
"""Client for the `hbft_cli serve` wire protocol.

Speaks the length-prefixed request/response framing of src/serve/wire.hpp:

    frame  := u32le body_len | body
    body   := u8 type (1=request, 2=response)
            | u8 flags (bit0 = resend)
            | u64le client_id
            | u64le seq
            | u32le payload_len
            | payload

The client numbers requests 1..N, pipelines up to a window of them, and
treats a received response for seq S as the server's commitment: under the
serve subsystem's output-commit rule, a response is only released once the
backup has acknowledged everything the response depends on, so an
acknowledged write survives a primary failure.

Failover behaviour: when the connection dies (the primary was killed), the
client reconnects — retrying until the promoted backup takes over the
listener — and resends every unacknowledged request with the resend flag.
Responses are deduplicated by seq (a promoted backup may re-transmit an
uncertain echo; that is the paper's P7, not an error).

The summary reports ack latency over the acknowledged requests: p50 and
p90 of the time from a request's first send to its response, so a request
resent across a failover is charged the whole outage.

Usable as a library (ServeClient) or a CLI:

    tools/serve_client.py --port=7070 --count=32 --payload-bytes=64 \
        --timeout=60 --json
"""

import argparse
import json
import os
import socket
import struct
import sys
import time

FRAME_REQUEST = 1
FRAME_RESPONSE = 2
FLAG_RESEND = 0x01
MAX_PAYLOAD = 256 - 18  # NIC packet budget minus the "SV" request header.
HEADER = struct.Struct("<BBQQI")  # type, flags, client_id, seq, payload_len


def encode_frame(ftype, flags, client_id, seq, payload):
    body = HEADER.pack(ftype, flags, client_id, seq, len(payload)) + payload
    return struct.pack("<I", len(body)) + body


def decode_body(body):
    if len(body) < HEADER.size:
        raise ValueError("short frame body: %d bytes" % len(body))
    ftype, flags, client_id, seq, payload_len = HEADER.unpack(body[: HEADER.size])
    payload = body[HEADER.size :]
    if len(payload) != payload_len:
        raise ValueError("payload length mismatch: %d != %d" % (len(payload), payload_len))
    return ftype, flags, client_id, seq, payload


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 1]; 0.0 for no values."""
    values = sorted(values)
    if not values:
        return 0.0
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (pos - lo) * (values[hi] - values[lo])


def request_payload(client_id, seq, payload_bytes):
    """Deterministic per-seq payload, so echo verification is self-contained."""
    stem = ("c%d-s%d-" % (client_id, seq)).encode()
    pad = b"x" * max(0, payload_bytes - len(stem))
    return (stem + pad)[:MAX_PAYLOAD]


class ServeClient:
    def __init__(self, host, port, client_id=None, payload_bytes=48):
        self.host = host
        self.port = port
        self.client_id = client_id if client_id is not None else (os.getpid() << 16) | 1
        self.payload_bytes = payload_bytes
        self.sock = None
        self.rxbuf = b""
        self.unacked = {}  # seq -> payload sent
        self.first_sent = {}  # seq -> monotonic time of the first send
        self.acked = set()
        self.latencies = []  # seconds, first send -> ack, one per acked seq
        self.duplicates = 0
        self.reconnects = 0
        self.mismatches = 0

    # -- connection management -------------------------------------------------

    def connect(self, deadline):
        """(Re)connects, retrying until `deadline`; resends unacked requests."""
        first = self.sock is None and self.reconnects == 0
        self.close()
        while time.monotonic() < deadline:
            try:
                s = socket.create_connection((self.host, self.port), timeout=1.0)
                s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                s.settimeout(0.25)
                self.sock = s
                self.rxbuf = b""
                if not first:
                    self.reconnects += 1
                    self._resend_unacked()
                return True
            except OSError:
                time.sleep(0.1)
        return False

    def close(self):
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
            self.sock = None

    def _resend_unacked(self):
        for seq in sorted(self.unacked):
            frame = encode_frame(
                FRAME_REQUEST, FLAG_RESEND, self.client_id, seq, self.unacked[seq]
            )
            self.sock.sendall(frame)

    # -- request/response ------------------------------------------------------

    def send(self, seq):
        payload = request_payload(self.client_id, seq, self.payload_bytes)
        self.unacked[seq] = payload
        self.first_sent.setdefault(seq, time.monotonic())
        self.sock.sendall(encode_frame(FRAME_REQUEST, 0, self.client_id, seq, payload))

    def _feed(self, data):
        self.rxbuf += data
        frames = []
        while len(self.rxbuf) >= 4:
            (body_len,) = struct.unpack("<I", self.rxbuf[:4])
            if len(self.rxbuf) < 4 + body_len:
                break
            frames.append(self.rxbuf[4 : 4 + body_len])
            self.rxbuf = self.rxbuf[4 + body_len :]
        return frames

    def poll_responses(self):
        """Reads whatever is available; returns False when the connection died."""
        try:
            data = self.sock.recv(65536)
        except socket.timeout:
            return True
        except OSError:
            return False
        if not data:
            return False
        now = time.monotonic()
        for body in self._feed(data):
            ftype, _flags, client_id, seq, payload = decode_body(body)
            if ftype != FRAME_RESPONSE or client_id != self.client_id:
                continue
            if seq in self.acked:
                self.duplicates += 1  # P7 uncertain-echo replay: benign.
                continue
            expect = self.unacked.get(seq)
            if expect is not None and payload != expect:
                self.mismatches += 1
            self.acked.add(seq)
            self.unacked.pop(seq, None)
            if seq in self.first_sent:
                self.latencies.append(now - self.first_sent[seq])
        return True

    # -- driver ----------------------------------------------------------------

    def run(self, count, timeout_s, window=4, on_progress=None):
        """Sends `count` requests, surviving reconnects; True iff all acked."""
        deadline = time.monotonic() + timeout_s
        if not self.connect(deadline):
            return False
        next_seq = 1
        while len(self.acked) < count and time.monotonic() < deadline:
            try:
                while next_seq <= count and len(self.unacked) < window:
                    self.send(next_seq)
                    next_seq += 1
                alive = self.poll_responses()
            except OSError:
                alive = False
            if not alive:
                if not self.connect(deadline):
                    return False
                # Requests never sent are sent fresh by the loop above.
            if on_progress:
                on_progress(self)
        return len(self.acked) >= count

    def summary(self):
        return {
            "client_id": self.client_id,
            "acked": len(self.acked),
            "duplicates": self.duplicates,
            "reconnects": self.reconnects,
            "mismatches": self.mismatches,
            "ack_p50_ms": percentile(self.latencies, 0.5) * 1e3,
            "ack_p90_ms": percentile(self.latencies, 0.9) * 1e3,
        }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--count", type=int, default=16, help="requests to send")
    parser.add_argument("--payload-bytes", type=int, default=48)
    parser.add_argument("--window", type=int, default=4, help="max requests in flight")
    parser.add_argument("--timeout", type=float, default=60.0)
    parser.add_argument("--client-id", type=int, default=None)
    parser.add_argument("--json", action="store_true", help="JSON summary on stdout")
    args = parser.parse_args()

    client = ServeClient(args.host, args.port, args.client_id, args.payload_bytes)
    ok = client.run(args.count, args.timeout, args.window)
    client.close()
    summary = client.summary()
    summary["ok"] = ok
    summary["sent"] = args.count
    if args.json:
        json.dump(summary, sys.stdout)
        sys.stdout.write("\n")
    else:
        print(
            "serve_client: %s acked=%d/%d duplicates=%d reconnects=%d mismatches=%d"
            " ack_p50=%.1fms ack_p90=%.1fms"
            % (
                "OK" if ok else "FAIL",
                summary["acked"],
                args.count,
                summary["duplicates"],
                summary["reconnects"],
                summary["mismatches"],
                summary["ack_p50_ms"],
                summary["ack_p90_ms"],
            )
        )
    return 0 if ok and summary["mismatches"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
