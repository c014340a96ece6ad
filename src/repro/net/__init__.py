"""Real networking for the runtime: wire codec, TCP transport, deploy.

:mod:`repro.net` is the seam between the single-process runtime and a
multi-process deployment.  It contains:

- :mod:`repro.net.codec` -- the length-prefixed wire format for
  :class:`~repro.runtime.messages.Envelope` (the one module that owns
  byte layout);
- :mod:`repro.net.directory` -- :class:`PeerDirectory`, the static
  NodeId -> ``host:port`` table;
- :mod:`repro.net.tcp` -- :class:`TcpTransport`, the asyncio TCP
  implementation of the runtime :class:`~repro.runtime.transport.Transport`
  contract;
- :mod:`repro.net.deploy` -- ``repro deploy``: shard a plan across
  worker processes, supervise them, and merge their reports;
- :mod:`repro.net.worker` -- the child-process entrypoints.
"""

from repro.net.codec import (
    CODEC_STRUCT,
    HEADER_BYTES,
    MAGIC,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    CodecError,
    FrameDecoder,
    FrameError,
    decode_header,
    decode_payload,
    default_codec,
    encode_frame,
    encode_payload,
)
from repro.net.deploy import (
    DeployError,
    DeployOutcome,
    DeploySpec,
    make_spec,
    parse_chaos_kill,
    participating_nodes,
    run_deploy,
    shard_nodes,
)
from repro.net.directory import Endpoint, PeerDirectory
from repro.net.tcp import TcpTransport

__all__ = [
    "CODEC_STRUCT",
    "CodecError",
    "DeployError",
    "DeployOutcome",
    "DeploySpec",
    "Endpoint",
    "FrameDecoder",
    "FrameError",
    "HEADER_BYTES",
    "MAGIC",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "PeerDirectory",
    "TcpTransport",
    "make_spec",
    "parse_chaos_kill",
    "participating_nodes",
    "run_deploy",
    "shard_nodes",
    "decode_header",
    "decode_payload",
    "default_codec",
    "encode_frame",
    "encode_payload",
]
