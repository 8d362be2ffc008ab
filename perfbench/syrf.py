"""Minimal client for symbold's SYRF wire protocol (src/server/proto.hh).

Frame: b"SYRF", u32 version, u32 kind, u64 payload size, u64 FNV-1a
checksum chained over the first 20 header bytes and then the payload,
all little-endian, followed by the payload. Payload fields use the
serialize::Writer encoding: LEB128 varints, length-prefixed strings,
one byte per bool, doubles as their IEEE-754 bit pattern.
"""

import socket
import struct

PROTO_VERSION = 1
HEADER_BYTES = 28

COMPILE_REQUEST = 1
COMPILE_RESPONSE = 2
STATS_REQUEST = 3
STATS_RESPONSE = 4
DRAIN_REQUEST = 5
DRAIN_RESPONSE = 6
ERROR_RESPONSE = 7

_FNV_OFFSET = 14695981039346656037
_FNV_PRIME = 1099511628211
_MASK = (1 << 64) - 1


class ProtocolError(Exception):
    pass


def fnv1a(data, h=_FNV_OFFSET):
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK
    return h


def _varint(v):
    out = bytearray()
    while True:
        byte = v & 0x7F
        v >>= 7
        if v:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _str(s):
    b = s.encode()
    return _varint(len(b)) + b


def pack_frame(kind, payload=b""):
    head = b"SYRF" + struct.pack("<IIQ", PROTO_VERSION, kind, len(payload))
    return head + struct.pack("<Q", fnv1a(payload, fnv1a(head))) + payload


def compile_request(source, name="request", indexing=True,
                    expand_tags=False, proto=False, units=3, mode="trace"):
    """One packed CompileRequest frame, no deadline, no schedule
    listing. An empty @p source asks for the suite benchmark @p name;
    the defaults are the protocol's (an ideal shared 3-unit machine,
    trace compaction, first-argument indexing)."""
    payload = (_str(source) + _str(name)
               + bytes([indexing, expand_tags, proto])
               + _varint(units) + _str(mode) + _varint(0) + bytes([0]))
    return pack_frame(COMPILE_REQUEST, payload)


class _Reader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.data):
            raise ProtocolError("truncated payload")
        b = self.data[self.pos:self.pos + n]
        self.pos += n
        return b

    def vu(self):
        v = shift = 0
        while True:
            byte = self.take(1)[0]
            v |= (byte & 0x7F) << shift
            shift += 7
            if not byte & 0x80:
                return v

    def str(self):
        return self.take(self.vu()).decode()


class Client:
    """One connection; requests are answered in order."""

    def __init__(self, path, timeout=60.0):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)

    def close(self):
        self.sock.close()

    def _recv_exact(self, n):
        buf = bytearray()
        while len(buf) < n:
            chunk = self.sock.recv(n - len(buf))
            if not chunk:
                raise ProtocolError("connection closed mid-frame")
            buf += chunk
        return bytes(buf)

    def call(self, frame):
        """Send one packed frame; return (kind, payload) of the reply."""
        self.sock.sendall(frame)
        head = self._recv_exact(HEADER_BYTES)
        if head[:4] != b"SYRF":
            raise ProtocolError("bad frame magic")
        version, kind, size, checksum = struct.unpack("<IIQQ", head[4:])
        if version != PROTO_VERSION:
            raise ProtocolError("protocol version %d" % version)
        payload = self._recv_exact(size)
        if fnv1a(payload, fnv1a(head[:20])) != checksum:
            raise ProtocolError("frame checksum mismatch")
        if kind == ERROR_RESPONSE:
            r = _Reader(payload)
            code = r.vu()
            raise ProtocolError("server error %d: %s" % (code, r.str()))
        return kind, payload

    def compile(self, frame):
        """Answer text and VLIW cycles of one CompileRequest frame."""
        kind, payload = self.call(frame)
        if kind != COMPILE_RESPONSE:
            raise ProtocolError("unexpected reply kind %d" % kind)
        r = _Reader(payload)
        answer = r.str()
        r.vu()  # instructions
        r.vu()  # sequential cycles
        return answer, r.vu()

    def stats(self):
        kind, payload = self.call(pack_frame(STATS_REQUEST))
        if kind != STATS_RESPONSE:
            raise ProtocolError("unexpected reply kind %d" % kind)
        return _Reader(payload).str()

    def drain(self):
        kind, _ = self.call(pack_frame(DRAIN_REQUEST))
        if kind != DRAIN_RESPONSE:
            raise ProtocolError("unexpected reply kind %d" % kind)
