"""The Control Module: the layer shared by clients and brokers.

Section 2.2: "The Control Module acts as an intermediate layer between
the Broker and Client Modules, providing the generic functionalities on
regards to group management and messaging."  Concretely it owns the
endpoint, the pipe registry, the local advertisement cache and the
message/advertisement plumbing that both sides use.
"""

from __future__ import annotations

from repro import obs
from repro.crypto.drbg import HmacDrbg
from repro.errors import AdvertisementError, OverlayError
from repro.jxta.advertisements import Advertisement, PipeAdvertisement
from repro.jxta.discovery import AdvertisementCache
from repro.jxta.endpoint import Endpoint
from repro.jxta.ids import JxtaID, random_pipe_id
from repro.jxta.messages import Message
from repro.jxta.pipes import InputPipe, OutputPipe, PipeRegistry
from repro.jxta.transport.base import SecureTransport
from repro.net.base import Transport
from repro.overlay.events import EventBus
from repro.xmllib import Element

RESULTS_TAG = "Results"


def pack_results(elements: list[Element]) -> Element:
    """Wrap several advertisement documents for a query response."""
    holder = Element(RESULTS_TAG)
    for elem in elements:
        holder.append(elem)
    return holder


def unpack_results(holder: Element) -> list[Element]:
    if holder.tag != RESULTS_TAG:
        raise OverlayError(f"expected <{RESULTS_TAG}>, got <{holder.tag}>")
    return list(holder.children)


def merge_results(*element_lists: list[Element]) -> list[Element]:
    """Merge advertisement documents from several shards, deduplicated.

    Entries are keyed on :meth:`Advertisement.key` (the same replacement
    key the caches use); earlier lists win, so a broker merging a
    scatter-gather response keeps its local copy over a remote one.
    Unparseable documents are dropped.
    """
    merged: dict[tuple[str, str, str], Element] = {}
    for elements in element_lists:
        for element in elements:
            try:
                key = Advertisement.from_element(element).key()
            except (OverlayError, AdvertisementError):
                continue
            merged.setdefault(key, element)
    return list(merged.values())


class ControlModule:
    """Endpoint + pipes + advertisement cache for one overlay entity."""

    def __init__(self, network: Transport, address: str,
                 drbg: HmacDrbg, adv_lifetime: float = 3600.0,
                 transport: SecureTransport | None = None) -> None:
        """``network`` is any :class:`~repro.net.base.Transport`
        backend (the simulator's :class:`~repro.sim.network.SimNetwork`
        or a :class:`~repro.net.tcp.TcpTransport`); the whole overlay
        stack above this module is backend-agnostic."""
        self.network = network
        self.clock = network.clock
        self.drbg = drbg
        self.address = address
        self.endpoint = Endpoint(network, address, transport=transport)
        self.metrics: obs.Registry = self.endpoint.metrics
        self.pipes = PipeRegistry(self.endpoint)
        self.cache = AdvertisementCache(self.clock, lifetime=adv_lifetime)
        self.events = EventBus()

    def close(self) -> None:
        self.endpoint.close()

    # -- pipe management ---------------------------------------------------

    def open_group_pipe(self, peer_id: JxtaID, group: str) -> tuple[InputPipe, PipeAdvertisement]:
        """Create the input pipe for one group plus its advertisement."""
        pipe_id = random_pipe_id(self.drbg)
        pipe = self.pipes.create_input_pipe(pipe_id, group)
        adv = PipeAdvertisement(
            peer_id=peer_id, pipe_id=pipe_id, group=group, address=self.address)
        return pipe, adv

    def output_pipe(self, adv: PipeAdvertisement) -> OutputPipe:
        return OutputPipe(self.endpoint, adv)

    # -- advertisement handling -----------------------------------------------

    def accept_advertisement(self, element: Element) -> Advertisement:
        """Cache a pushed/fetched advertisement document and emit the event."""
        parsed = self.cache.publish(element)
        self.events.emit("advertisement_received", advertisement=parsed)
        return parsed

    def cached_pipe_advertisement(self, peer_id: str, group: str) -> Element:
        """The raw cached pipe advertisement for (peer, group)."""
        return self.cached_pipe_element(peer_id, group).deep_copy()

    def cached_pipe_element(self, peer_id: str, group: str) -> Element:
        """The cache's own element for (peer, group) — **no copy**.

        Callers must treat the result as read-only: it is the live cache
        entry, and its object identity is what the secure client's
        validated-pipe memo keys on (a republished advertisement is a
        new object, so identity-misses force revalidation).
        """
        entry = self.cache.find_one("PipeAdvertisement", peer_id, group=group)
        return entry.element
