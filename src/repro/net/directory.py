"""The peer directory: where each address lives on the network.

A :class:`PeerDirectory` maps :class:`~repro.core.attributes.NodeId`
addresses to ``host:port`` :class:`Endpoint`\\ s.  Many addresses map
to one endpoint -- a worker process hosts a whole shard of node agents
behind a single listening socket -- and :class:`repro.net.TcpTransport`
pools connections per *endpoint*, not per address, so tree edges
between two shards share one TCP stream.

The directory is deliberately static data (every ``repro deploy``
process builds the same one from its spec); there is no gossip or
discovery here.  ``default`` covers the single-host loopback case
where every address is served by one endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.core.attributes import NodeId


@dataclass(frozen=True, order=True)
class Endpoint:
    """One listening socket: ``host:port``."""

    host: str
    port: int

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"

    def as_pair(self) -> Tuple[str, int]:
        return (self.host, self.port)


class PeerDirectory:
    """NodeId -> :class:`Endpoint` lookup table."""

    def __init__(self, default: Optional[Endpoint] = None) -> None:
        self._mapping: Dict[NodeId, Endpoint] = {}
        self.default = default

    def assign(self, addresses: Iterable[NodeId], endpoint: Endpoint) -> None:
        """Map every address in ``addresses`` to ``endpoint``."""
        for address in addresses:
            self._mapping[address] = endpoint

    def endpoint_of(self, address: NodeId) -> Optional[Endpoint]:
        """Where ``address`` listens, or ``None`` when unroutable."""
        return self._mapping.get(address, self.default)
