"""Network-distributed DSM: the coherence manager as a mapper actor.

:mod:`repro.dsm.protocol` shares one in-process manager object between
sites; this module distributes it for real, the way section 5.1.2
describes mappers: the manager lives behind a server port on its home
site, each participant runs a small *agent* port that executes cache
control operations on its local cache, and every protocol action —
pull, write grant, owner sync, invalidation, push — is an IPC message
crossing the simulated network and paying its latency.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.dsm.protocol import CoherenceManager
from repro.dsm.site import DsmSite
from repro.errors import InvalidOperation
from repro.gmi.types import AccessMode, Protection
from repro.cache.provider import SegmentProvider
from repro.ipc.message import Message
from repro.net.network import Network
from repro.nucleus.nucleus import Nucleus
from repro.obs import NULL_PROBE


class _AgentCache:
    """The manager's remote handle on one site's local cache.

    Quacks enough like a cache for :class:`CoherenceManager`: control
    operations become agent RPCs across the network.
    """

    def __init__(self, dsm: "NetworkedDsm", site: str):
        self.dsm = dsm
        self.site = site

    def _rpc(self, op: str, offset: int, size: int, **extra) -> Message:
        header = {"op": op, "offset": offset, "size": size}
        header.update(extra)
        return self.dsm.network.send(self.dsm.manager_site, self.site,
                                     self.dsm.agent_port(self.site),
                                     header=header)

    def sync(self, offset: int, size: int) -> None:
        self._rpc("sync", offset, size)

    def flush(self, offset: int, size: int) -> None:
        self._rpc("flush", offset, size)

    def invalidate(self, offset: int, size: int) -> None:
        self._rpc("invalidate", offset, size)

    def set_protection(self, offset: int, size: int,
                       protection: Protection) -> None:
        self._rpc("setProtection", offset, size,
                  protection=int(protection))

    # fill paths are never called through the agent handle.
    def fill_up(self, offset: int, data: bytes) -> None:
        raise InvalidOperation("manager does not fill remote caches")

    def fill_zero(self, offset: int, size: int) -> None:
        raise InvalidOperation("manager does not fill remote caches")

    def copy_back(self, offset: int, size: int) -> bytes:
        reply = self._rpc("copyBack", offset, size)
        return reply.inline


class _RemoteSiteProvider(SegmentProvider):
    """The per-site provider: upcalls become manager RPCs."""

    def __init__(self, dsm: "NetworkedDsm", site: str):
        self.dsm = dsm
        self.site = site
        #: rebound to the joining nucleus's probe in NetworkedDsm.join.
        self.probe = NULL_PROBE

    def _manager_rpc(self, header: dict,
                     data: Optional[bytes] = None) -> Message:
        return self.dsm.network.send(self.site, self.dsm.manager_site,
                                     self.dsm.MANAGER_PORT,
                                     header=header, data=data)

    def pull_in(self, cache, offset: int, size: int,
                access_mode: AccessMode) -> None:
        with self.probe.span("dsm.fetch") as span:
            if span:
                span.set(site=self.site, offset=offset, op="pull")
            reply = self._manager_rpc({
                "op": "pull", "site": self.site, "offset": offset,
                "size": size,
            })
            zero = bool(reply.header.get("zero"))
            if span:
                span.set(zero=zero)
            if zero:
                cache.fill_zero(offset, size)
            else:
                cache.fill_up(offset, reply.inline)
        self.probe.count("dsm.pull")

    def get_write_access(self, cache, offset: int, size: int) -> None:
        with self.probe.span("dsm.fetch") as span:
            if span:
                span.set(site=self.site, offset=offset, op="grant")
            self._manager_rpc({
                "op": "grant", "site": self.site, "offset": offset,
                "size": size,
            })
            # The grant names this site the exclusive owner; lift the
            # local write cap (remote caps were re-imposed via the
            # agents).
            cache.set_protection(offset, size, Protection.RWX)
        self.probe.count("dsm.grant")

    def push_out(self, cache, offset: int, size: int) -> None:
        self._manager_rpc({
            "op": "push", "site": self.site, "offset": offset,
        }, data=cache.copy_back(offset, size))
        self.probe.count("dsm.push")

    def segment_create(self, cache) -> object:
        return f"dsm@{self.site}"


class NetworkedDsm:
    """One coherent segment distributed over a real (simulated) network."""

    MANAGER_PORT = "dsm-manager"

    def __init__(self, network: Network, manager_site: str,
                 segment_pages: int, page_size: int):
        self.network = network
        self.manager_site = manager_site
        self.segment_pages = segment_pages
        self.page_size = page_size
        self.manager = CoherenceManager(segment_pages, page_size)
        self._caches: Dict[str, object] = {}
        manager_nucleus = network.site(manager_site)
        manager_nucleus.ipc.create_port(self.MANAGER_PORT,
                                        handler=self._handle)

    # -- ports ------------------------------------------------------------------

    @staticmethod
    def agent_port(site: str) -> str:
        """Port name of *site*'s cache-control agent."""
        return f"dsm-agent@{site}"

    # -- manager-side handler ---------------------------------------------------------

    def _handle(self, message: Message) -> Message:
        header = message.header
        op = header["op"]
        if op == "pull":
            cache = _PullSink()
            self.manager.serve_pull(header["site"], cache,
                                    header["offset"], header["size"])
            if cache.zero:
                return Message(header={"op": "pull-reply", "zero": True})
            return Message(header={"op": "pull-reply"}, inline=cache.data)
        if op == "grant":
            requester = _NullCache()
            self.manager.grant_write(header["site"], requester,
                                     header["offset"], header["size"])
            return Message(header={"op": "grant-reply"})
        if op == "push":
            self.manager.backing[header["offset"]] = message.inline
            return Message(header={"op": "push-reply"})
        raise InvalidOperation(f"unknown DSM manager op {op!r}")

    # -- membership ----------------------------------------------------------------------

    def join(self, site: str, nucleus: Nucleus,
             base: int = 0x100000) -> DsmSite:
        """Attach *site*'s nucleus: local cache + region + agent port."""
        provider = _RemoteSiteProvider(self, site)
        provider.probe = getattr(nucleus.vm, "probe", None) or NULL_PROBE
        cache = nucleus.vm.cache_create(provider, name=f"{site}.dsm")
        self._caches[site] = cache
        actor = nucleus.create_actor(f"{site}.dsm-user")
        actor.context.region_create(
            base, self.segment_pages * self.page_size,
            protection=Protection.RW, cache=cache)

        def agent(message: Message) -> Message:
            header = message.header
            op = header["op"]
            offset, size = header["offset"], header["size"]
            if op == "sync":
                cache.sync(offset, size)
            elif op == "flush":
                cache.flush(offset, size)
            elif op == "invalidate":
                cache.invalidate(offset, size)
            elif op == "setProtection":
                cache.set_protection(offset, size,
                                     Protection(header["protection"]))
            elif op == "copyBack":
                return Message(header={"op": "copyBack-reply"},
                               inline=cache.copy_back(offset, size))
            else:
                raise InvalidOperation(f"unknown DSM agent op {op!r}")
            return Message(header={"op": f"{op}-reply"})

        nucleus.ipc.create_port(self.agent_port(site), handler=agent)
        # Register with the manager through its remote handle: control
        # traffic to this site now crosses the network.
        self.manager.attach(site, _AgentCache(self, site))
        return DsmSite(name=site, nucleus=nucleus, actor=actor,
                       cache=cache, base=base)


class _PullSink:
    """Collects what serve_pull delivers so it can cross the wire."""

    def __init__(self):
        self.data = b""
        self.zero = False

    def fill_up(self, offset: int, data: bytes) -> None:
        self.data = data

    def fill_zero(self, offset: int, size: int) -> None:
        self.zero = True


class _NullCache:
    """grant_write's requester handle: the cap lift happens site-side."""

    def set_protection(self, offset: int, size: int, protection) -> None:
        pass
