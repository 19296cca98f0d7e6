"""The §5 pipeline restricted to one region's targets, for fast tests.

Customer /24s are filtered by the region's announced prefixes;
rDNS-harvested infrastructure targets (which live in a shared infra
pool) are filtered by the region tag in their hostname.
"""

import ipaddress

from repro.infer.pipeline import CableInferencePipeline

REGION = "saltlake"


class RegionPipeline(CableInferencePipeline):
    """:class:`CableInferencePipeline` probing only :data:`REGION`."""

    def slash24_targets(self):
        nets = self.isp.region_prefixes[REGION]
        return [
            t for t in super().slash24_targets()
            if any(ipaddress.ip_address(t) in n for n in nets)
        ]

    def rdns_targets(self):
        targets = []
        for address in super().rdns_targets():
            hostname = self.network.rdns.snapshot_lookup(address)
            parsed = self.parser.regional_co(hostname, self.isp.name)
            if parsed is not None and parsed[0] == REGION:
                targets.append(address)
        return targets
