"""The per-hop traceroute engine, frozen as the probe-path kernel's oracle.

This is the probing code as it stood before the kernel computed link,
address and hash facts once per topology or trace: every helper here
rescans adjacency lists, re-parses addresses, re-sorts ECMP options and
hashes a freshly joined string on every probe.  It reads only the raw
network state (adjacency lists, prefix table, MPLS tunnels and rules,
reply policies), so a kernel bug cannot leak into the reference.

``tests/measure/test_probe_kernel.py`` checks that
:meth:`repro.measure.traceroute.Tracerouter.trace` matches
:meth:`OracleTracer.trace` field for field.
"""

from __future__ import annotations

import hashlib
import ipaddress

from repro.errors import RoutingError, TopologyError
from repro.measure.traceroute import Hop, TraceResult
from repro.net.link import PER_HOP_PROCESSING_MS


def stable_hash(*parts) -> int:
    text = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


def route_target(network, address):
    """Owner lookup, then one ``ip_network`` per routed prefix length."""
    addr = ipaddress.ip_address(address) if isinstance(address, str) else address
    iface = network._addr_owner.get(str(addr))
    if iface is not None:
        return iface.router, True
    routes = {
        str(ipaddress.ip_network((net, plen))): router
        for (_version, plen, net), router in network._prefix_routes.items()
    }
    lens = {(version, plen) for version, plen, _net in network._prefix_routes}
    best, best_len = None, -1
    for version, plen in lens:
        if version != addr.version or plen <= best_len:
            continue
        router = routes.get(str(ipaddress.ip_network(f"{addr}/{plen}", strict=False)))
        if router is not None:
            best, best_len = router, plen
    return best, False


def forwarding_path(network, src, dst, flow_id):
    if network.route_model is not None:
        modeled = network.route_model.forwarding_path(network, src, dst, flow_id)
        if modeled is not None:
            return modeled
    dist, preds = network._sssp(src.uid)
    if dst.uid not in dist:
        raise RoutingError(f"no route from {src.uid} to {dst.uid}")
    path_uids = [dst.uid]
    node = dst.uid
    while node != src.uid:
        options = preds[node]
        if len(options) == 1:
            node = options[0]
        else:
            choice = stable_hash("ecmp", flow_id, node) % len(options)
            node = sorted(options)[choice]
        path_uids.append(node)
    path_uids.reverse()
    return [network.routers[uid] for uid in path_uids]


def inbound_interfaces(network, path):
    result = [None]
    for prev, cur in zip(path, path[1:]):
        inbound = None
        for neighbor_uid, _w, link in network._adj[prev.uid]:
            if neighbor_uid != cur.uid:
                continue
            inbound = link.a if link.a.router is cur else link.b
            break
        result.append(inbound)
    return result


def path_delays_ms(network, path):
    delays = [0.0]
    total = 0.0
    for prev, cur in zip(path, path[1:]):
        for neighbor_uid, _w, link in network._adj[prev.uid]:
            if neighbor_uid == cur.uid:
                break
        else:
            raise RoutingError(f"no link between {prev.uid} and {cur.uid}")
        total += link.delay_ms + PER_HOP_PROCESSING_MS
        delays.append(total)
    return delays


def visible_path(mpls, path, destination, down=frozenset()):
    index = {router.uid: i for i, router in enumerate(path)}
    tunnels = []
    for router in path:
        for tunnel in mpls.tunnels:
            if tunnel.ingress.uid != router.uid:
                continue
            j = index.get(tunnel.egress.uid)
            if j is not None and index[tunnel.ingress.uid] < j:
                tunnels.append(tunnel)
    if down:
        tunnels = [t for t in tunnels if t.tunnel_id not in down]
    hidden_by_rule = set()
    for lsrs, reveal in mpls._lsr_rules:
        if destination.uid not in reveal:
            hidden_by_rule |= lsrs
    if not tunnels and not hidden_by_rule:
        return list(path)
    return [
        router for router in path
        if not (router.uid in hidden_by_rule and router is not destination)
        and not any(t.hides(router, destination) for t in tunnels)
    ]


def _inside(source, prefixes) -> bool:
    src = ipaddress.ip_address(source)
    return any(src.version == net.version and src in net for net in prefixes)


def probe_response(router, probe_source, probe_id, echo=False, faults=None) -> bool:
    if faults is not None and faults.rate_limited(router.uid, probe_id):
        return False
    policy = router.policy
    if policy.internal_only and not _inside(probe_source, policy.internal_only):
        return False
    if policy.respond_prob <= 0.0:
        return False
    if policy.respond_prob < 1.0:
        if stable_hash("respond", probe_id) % 10_000 >= policy.respond_prob * 10_000:
            return False
    if echo and policy.echo_internal_only:
        return _inside(probe_source, policy.echo_internal_only)
    return True


def reply_address(router, inbound, probed):
    mode = router.policy.reply_from
    if mode == "inbound" and inbound is not None:
        return inbound.address
    if mode == "loopback" and router.loopback is not None:
        return router.loopback
    probed_addr = ipaddress.ip_address(probed)
    if probed_addr in router.addresses():
        return probed_addr
    if inbound is not None:
        return inbound.address
    if router.interfaces:
        return router.interfaces[0].address
    raise TopologyError(f"router {router.uid} has no interfaces to reply from")


class OracleTracer:
    """The old ``Tracerouter``: same counters, same probe identities."""

    def __init__(self, network, max_ttl=32, jitter_ms=0.05, attempts=1, backoff_ms=0.3) -> None:
        self.network = network
        self.max_ttl = max_ttl
        self.jitter_ms = jitter_ms
        self.attempts = max(1, attempts)
        self.backoff_ms = backoff_ms
        self.probes_sent = 0
        self.traces_run = 0
        self.probes_lost = 0
        self.probes_refused = 0
        self.probes_retried = 0
        self.backoff_ms_total = 0.0

    def counters(self):
        return {
            "probes_sent": self.probes_sent,
            "traces_run": self.traces_run,
            "probes_lost": self.probes_lost,
            "probes_refused": self.probes_refused,
            "probes_retried": self.probes_retried,
            "backoff_ms_total": self.backoff_ms_total,
        }

    def _rtt(self, one_way_ms, probe_key):
        jitter = (stable_hash("rtt", probe_key) % 1000) / 1000.0 * self.jitter_ms
        return 2.0 * one_way_ms + 0.1 + jitter

    def trace(self, src, dst_address, flow_id=0, src_address=None):
        self.traces_run += 1
        network = self.network
        faults = network.faults
        source_addr = src_address or (
            str(src.interfaces[0].address) if src.interfaces else "0.0.0.0"
        )
        result = TraceResult(
            source_addr, str(ipaddress.ip_address(dst_address)), hops=[], flow_id=flow_id
        )
        dst_router, dst_exists = route_target(network, dst_address)
        if dst_router is None:
            return result
        path = forwarding_path(network, src, dst_router, f"{source_addr}|{flow_id}")
        inbound_of = {r.uid: i for r, i in zip(path, inbound_interfaces(network, path))}
        one_way = {r.uid: d for r, d in zip(path, path_delays_ms(network, path))}
        down = (
            faults.down_tunnels(network.mpls.tunnels, (source_addr, result.dst_address, flow_id))
            if faults is not None
            else frozenset()
        )
        visible = visible_path(network.mpls, path, dst_router, down=down)
        hop_index = 0
        for router in visible[1:]:
            is_final = router is dst_router
            hop_index += 1
            if hop_index > self.max_ttl:
                break
            base_key = (source_addr, dst_address, flow_id, hop_index)
            result.hops.append(self._probe_hop(
                router, is_final, dst_exists, dst_address,
                inbound_of.get(router.uid), one_way[router.uid], source_addr, base_key, faults,
            ))
            if is_final and result.hops[-1].responded:
                result.completed = True
        return result

    def _probe_hop(self, router, is_final, dst_exists, dst_address, inbound_iface,
                   one_way_ms, source_addr, base_key, faults):
        hop_index = base_key[-1]
        for attempt in range(self.attempts):
            probe_key = base_key if attempt == 0 else (*base_key, f"a{attempt}")
            self.probes_sent += 1
            if attempt:
                self.probes_retried += 1
                self.backoff_ms_total += self.backoff_ms * (2 ** (attempt - 1))
            if faults is not None and faults.probe_lost(probe_key):
                self.probes_lost += 1
                continue
            if is_final:
                responds = dst_exists and probe_response(
                    router, source_addr, probe_key, echo=True, faults=faults
                )
                reply_addr = str(ipaddress.ip_address(dst_address)) if responds else None
            else:
                responds = probe_response(router, source_addr, probe_key, faults=faults)
                reply_addr = (
                    str(reply_address(router, inbound_iface, dst_address)) if responds else None
                )
            if not responds:
                self.probes_refused += 1
                continue
            return Hop(
                index=hop_index,
                address=reply_addr,
                rdns=self.network.rdns.dig(reply_addr, fault_key=probe_key),
                rtt_ms=round(self._rtt(one_way_ms, probe_key), 3),
                reply_ttl=router.policy.initial_ttl - (hop_index - 1),
                attempts=attempt + 1,
            )
        return Hop(index=hop_index, address=None, attempts=self.attempts)
