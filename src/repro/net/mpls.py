"""MPLS label-switched paths.

The paper's AT&T and Charter case studies both contend with MPLS
tunnels that hide interior routers from traceroute (§4, §6, App. B.2,
App. C).  The model captures the two behaviours the methodology needs:

* **Invisible interiors** — a traceroute whose destination lies beyond
  the tunnel egress sees the ingress hop followed directly by the
  egress (or the first hop past it), with the interior hops absent.
  This creates the false ingress→egress links that Appendix B.2 prunes.
* **Direct Path Revelation (DPR)** — a traceroute *targeted at* the
  tunnel's egress interface (or at an interior router address) is
  routed as plain IP and reveals the interior hops (Vanaubel et al.,
  used in §6.1 / App. C, Table 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import TopologyError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.router import Router


@dataclass
class MplsTunnel:
    """A unidirectional LSP from *ingress* to *egress*.

    ``interior`` lists the label-switching routers strictly between the
    two endpoints.  When ``ttl_propagate`` is False (the "pipe" model,
    and AT&T's observed configuration), interior routers do not
    decrement the IP TTL, so they never generate ICMP time-exceeded
    messages for through traffic.
    """

    ingress: "Router"
    egress: "Router"
    interior: "tuple[Router, ...]" = ()
    ttl_propagate: bool = False
    name: str = ""

    def __post_init__(self) -> None:
        if self.ingress is self.egress:
            raise TopologyError("an LSP needs distinct ingress and egress routers")
        if self.ingress in self.interior or self.egress in self.interior:
            raise TopologyError("tunnel endpoints cannot also be interior hops")

    @property
    def tunnel_id(self) -> str:
        """Stable identifier for fault plans and bookkeeping."""
        return self.name or f"{self.ingress.uid}>{self.egress.uid}"

    def hides(self, router: "Router", destination_router: "Router") -> bool:
        """True when *router* is invisible for traffic to *destination_router*.

        Interior hops are hidden unless the destination is itself the
        egress or one of the interior routers (the DPR condition), or
        the tunnel propagates TTL.
        """
        if self.ttl_propagate:
            return False
        if router not in self.interior:
            return False
        if destination_router is self.egress or destination_router in self.interior:
            return False
        return True


class MplsDomain:
    """The set of LSPs configured inside one network.

    Two configuration shapes are supported:

    * explicit :class:`MplsTunnel` objects (the Charter case — a
      bounded set of ingress/egress pairs);
    * blanket **LSR rules** for provider cores where every interior
      router label-switches all through traffic (the AT&T case): the
      listed routers are hidden from traceroute unless the probe's
      destination router is itself part of the domain's infrastructure
      set — which is exactly the Direct Path Revelation condition used
      in §6.1 / Appendix C.
    """

    def __init__(self) -> None:
        self.tunnels: list[MplsTunnel] = []
        #: ingress uid -> egress uid -> tunnels between the two.
        self._by_ingress: dict[str, dict[str, list[MplsTunnel]]] = {}
        #: (hidden router uids, revealing destination router uids)
        self._lsr_rules: list[tuple[frozenset, frozenset]] = []
        #: destination uid -> uids the LSR rules hide from its probes.
        self._hidden_for: dict[str, frozenset] = {}
        #: Mutation counter: bumps on every tunnel or rule added, so
        #: layers that memoise visible paths know when to drop them.
        self.version = 0

    def add_lsr_rule(self, hidden_routers, reveal_destinations) -> None:
        """Hide *hidden_routers* except for probes destined to *reveal_destinations*."""
        self._lsr_rules.append(
            (
                frozenset(r.uid for r in hidden_routers),
                frozenset(r.uid for r in reveal_destinations),
            )
        )
        self._hidden_for.clear()
        self.version += 1

    def add(self, tunnel: MplsTunnel) -> MplsTunnel:
        """Register an LSP."""
        self.tunnels.append(tunnel)
        by_egress = self._by_ingress.setdefault(tunnel.ingress.uid, {})
        by_egress.setdefault(tunnel.egress.uid, []).append(tunnel)
        self.version += 1
        return tunnel

    def tunnel_through(self, path_routers: "list[Router]") -> "list[MplsTunnel]":
        """Return LSPs whose ingress and egress both appear, in order, on *path_routers*."""
        index = None  # uid -> last position, built once an ingress shows up
        found = []
        for router in path_routers:
            by_egress = self._by_ingress.get(router.uid)
            if not by_egress:
                continue
            if index is None:
                index = {r.uid: i for i, r in enumerate(path_routers)}
            # An LSP counts when its egress appears past the last
            # position of its ingress.
            for later in path_routers[index[router.uid] + 1:]:
                found.extend(by_egress.get(later.uid, ()))
        return found

    def visible_path(
        self,
        path_routers: "list[Router]",
        destination: "Router",
        down: "frozenset[str] | set[str]" = frozenset(),
    ) -> "list[Router]":
        """Filter a forwarding path down to the routers traceroute can see.

        Tunnels whose :attr:`~MplsTunnel.tunnel_id` appears in *down*
        are flapped: their traffic rides plain IP for this trace, so
        they hide nothing (the interior becomes visible exactly as a
        DPR probe would see it).
        """
        tunnels = self.tunnel_through(path_routers)
        if down:
            tunnels = [t for t in tunnels if t.tunnel_id not in down]
        hidden_by_rule = self._hidden_for.get(destination.uid)
        if hidden_by_rule is None:
            hidden_by_rule = frozenset().union(*(
                lsrs for lsrs, reveal in self._lsr_rules
                if destination.uid not in reveal
            ))
            self._hidden_for[destination.uid] = hidden_by_rule
        if not tunnels and not hidden_by_rule:
            return list(path_routers)
        visible = []
        for router in path_routers:
            if router.uid in hidden_by_rule and router is not destination:
                continue
            if any(t.hides(router, destination) for t in tunnels):
                continue
            visible.append(router)
        return visible
