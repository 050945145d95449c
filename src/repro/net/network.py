"""A simulated site interconnect.

Messages crossing the network pay a latency (charged to both ends'
virtual clocks — each site has its own) plus a per-byte wire cost.
Server (RPC) ports resolve synchronously, like the in-site IPC, so a
remote ``pullIn`` is: fault -> segment manager -> network RPC ->
remote mapper -> reply -> ``fillUp`` — the full distributed page-fault
path of the Chorus design.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import IpcError
from repro.ipc.message import Message
from repro.segments.capability import Capability
from repro.segments.mapper import Mapper


class Network:
    """Routes IPC between registered sites' port spaces."""

    def __init__(self, latency_ms: float = 2.0,
                 per_kb_ms: float = 0.25):
        self.latency_ms = latency_ms
        self.per_kb_ms = per_kb_ms
        self._sites: Dict[str, object] = {}
        self.messages = 0
        self.bytes_moved = 0

    def register(self, site_name: str, nucleus) -> None:
        """Put a site's Nucleus on the network under *site_name*."""
        if site_name in self._sites:
            raise IpcError(f"site {site_name} already on the network")
        self._sites[site_name] = nucleus

    def site(self, site_name: str):
        """The Nucleus registered as *site_name*."""
        nucleus = self._sites.get(site_name)
        if nucleus is None:
            raise IpcError(f"no such site: {site_name}")
        return nucleus

    # -- the wire -----------------------------------------------------------------

    def _charge(self, src_nucleus, dst_nucleus, payload: int) -> None:
        cost = self.latency_ms + (payload / 1024.0) * self.per_kb_ms
        src_nucleus.clock.advance(cost)
        if dst_nucleus is not src_nucleus:
            dst_nucleus.clock.advance(cost)
        self.messages += 1
        self.bytes_moved += payload

    def send(self, src_site: str, dst_site: str, port: str,
             header: Optional[dict] = None,
             data: Optional[bytes] = None) -> Optional[Message]:
        """Send across the network; returns the reply for RPC ports.

        Cross-site payloads are always by-value (no shared transit
        segment exists between sites), so only the inline path applies.
        """
        src_nucleus = self.site(src_site)
        dst_nucleus = self.site(dst_site)
        self._charge(src_nucleus, dst_nucleus, len(data or b""))
        reply = dst_nucleus.ipc.send(port, header=header, data=data)
        if reply is not None:
            self._charge(src_nucleus, dst_nucleus, len(reply.inline or b""))
        return reply


class RemoteMapper(Mapper):
    """A local proxy for a mapper actor on another site.

    Registered with the local Nucleus like any mapper; each request is
    forwarded over the network to the home site's real mapper port.
    Capabilities stay valid across sites: they name the (remote)
    mapper's port and its opaque key, exactly as the paper describes.
    """

    def __init__(self, network: Network, local_site: str, home_site: str,
                 remote_port: str, proxy_port: Optional[str] = None):
        # Default to the remote port's own name: capabilities minted by
        # the real mapper then validate unchanged on this site.
        super().__init__(proxy_port or remote_port)
        self.network = network
        self.local_site = local_site
        self.home_site = home_site
        self.remote_port = remote_port

    def _remote(self, header: dict, data: Optional[bytes] = None) -> Message:
        reply = self.network.send(self.local_site, self.home_site,
                                  self.remote_port, header=header,
                                  data=data)
        if reply is None:
            raise IpcError(f"remote mapper {self.remote_port} gave no reply")
        return reply

    def _capability(self, key: int) -> Capability:
        return Capability(self.remote_port, key)

    def read_segment(self, key: int, offset: int, size: int) -> bytes:
        self.read_requests += 1
        reply = self._remote({
            "op": "read", "capability": self._capability(key),
            "offset": offset, "size": size,
        })
        return reply.inline

    def write_segment(self, key: int, offset: int, data: bytes) -> None:
        self.write_requests += 1
        self._remote({
            "op": "write", "capability": self._capability(key),
            "offset": offset,
        }, data=data)

    def segment_size(self, key: int) -> int:
        reply = self._remote({
            "op": "size", "capability": self._capability(key),
        })
        return reply.header["size"]
