"""The peer directory: where each address lives on the network.

A :class:`PeerDirectory` maps :class:`~repro.core.attributes.NodeId`
addresses to ``host:port`` :class:`Endpoint`\\ s.  Many addresses map
to one endpoint -- a worker process hosts a whole shard of node agents
behind a single listening socket -- and :class:`repro.net.TcpTransport`
pools connections per *endpoint*, not per address, so tree edges
between two shards share one TCP stream.

The directory is deliberately static data (built by ``repro deploy``
before any process starts, serialized into each worker's spec); there
is no gossip or discovery here.  ``default`` covers the single-host
loopback case where every address is served by one endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

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

    def __init__(
        self,
        mapping: Optional[Mapping[NodeId, Endpoint]] = None,
        default: Optional[Endpoint] = None,
    ) -> None:
        self._mapping: Dict[NodeId, Endpoint] = dict(mapping or {})
        self.default = default

    def __len__(self) -> int:
        return len(self._mapping)

    def __contains__(self, address: NodeId) -> bool:
        return address in self._mapping or self.default is not None

    def assign(self, addresses: Iterable[NodeId], endpoint: Endpoint) -> None:
        """Map every address in ``addresses`` to ``endpoint``."""
        for address in addresses:
            self._mapping[address] = endpoint

    def endpoint_of(self, address: NodeId) -> Optional[Endpoint]:
        """Where ``address`` listens, or ``None`` when unroutable."""
        return self._mapping.get(address, self.default)

    def endpoints(self) -> List[Endpoint]:
        """Every distinct endpoint in the table (sorted, deduplicated)."""
        found = set(self._mapping.values())
        if self.default is not None:
            found.add(self.default)
        return sorted(found)

    # -- serialization (the deploy spec carries directories as JSON) ---
    def as_dict(self) -> Dict[str, object]:
        return {
            "peers": [[a, e.host, e.port] for a, e in sorted(self._mapping.items())],
            "default": list(self.default.as_pair()) if self.default else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "PeerDirectory":
        peers = data.get("peers") or []
        mapping = {
            int(address): Endpoint(str(host), int(port))
            for address, host, port in peers  # type: ignore[union-attr]
        }
        raw_default = data.get("default")
        default = (
            Endpoint(str(raw_default[0]), int(raw_default[1]))  # type: ignore[index]
            if raw_default
            else None
        )
        return cls(mapping, default=default)
