"""Wiring a :class:`~repro.faults.plan.FaultPlan` into the substrate.

The injector sits between the plan (pure, order-independent decisions)
and the measurement stack (which needs bookkeeping): it counts every
injected event, tracks how many probes each vantage point has sent so
dropout thresholds fire at the right moment, and serializes that state
into campaign checkpoints so a resumed run continues exactly where the
killed one left off.

Attachment is via :meth:`repro.net.network.Network.attach_faults`; with
no injector attached every hook is a no-op and the substrate behaves
byte-identically to the fault-free seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.faults.plan import FaultPlan, seeded_uniform


@dataclass
class FaultStats:
    """Counts of injected events, by fault class."""

    probes_lost: int = 0
    rate_limited: int = 0
    rdns_timeouts: int = 0
    vp_flaps: int = 0
    lsp_flaps: int = 0
    stale_lookups: int = 0
    worker_crashes: int = 0
    worker_stalls: int = 0
    worker_slowdowns: int = 0
    vps_killed: "list[str]" = field(default_factory=list)

    #: The counts a single traceroute can move, in the order a
    #: supervised worker's per-trace cost record carries them.  VP flaps
    #: and deaths happen in the runner loop and stale lookups at
    #: inference time, so neither ever happens inside a worker.
    TRACE_COUNTS = ("probes_lost", "rate_limited", "rdns_timeouts", "lsp_flaps")

    def charge(self, cost) -> None:
        """Add *cost*, amounts in :attr:`TRACE_COUNTS` order, to the counts."""
        for name, amount in zip(self.TRACE_COUNTS, cost):
            setattr(self, name, getattr(self, name) + amount)

    def as_dict(self) -> "dict[str, object]":
        payload = {spec.name: getattr(self, spec.name) for spec in fields(self)}
        payload["vps_killed"] = sorted(self.vps_killed)
        return payload

    @classmethod
    def from_dict(cls, payload: "dict[str, object]") -> "FaultStats":
        counts = {
            spec.name: int(payload.get(spec.name, 0))
            for spec in fields(cls) if spec.name != "vps_killed"
        }
        return cls(**counts, vps_killed=list(payload.get("vps_killed", [])))

    def publish_metrics(self, metrics, prefix: str = "faults.") -> None:
        """Publish injected-event counts, by fault class, as gauges."""
        for name, value in self.as_dict().items():
            if name == "vps_killed":
                metrics.set_gauge(f"{prefix}vps_killed", len(value))
            else:
                metrics.set_gauge(f"{prefix}{name}", value)


class FaultInjector:
    """Stateful adapter between a :class:`FaultPlan` and the substrate."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.stats = FaultStats()
        #: Probes sent per VP (drives the dropout threshold).
        self._vp_probes: "dict[str, int]" = {}
        self._doomed: "set[str]" = set()
        self._dead: "set[str]" = set()
        #: Donor hostnames for stale-rDNS injection (built lazily from
        #: the store's snapshot; stable for the campaign's duration).
        self._stale_donors: "list[str] | None" = None
        self._stale_seen: "set[str]" = set()

    # ------------------------------------------------------------------
    # Probe-path hooks (consulted by Tracerouter / alias probers)
    # ------------------------------------------------------------------
    def probe_lost(self, probe_key: object) -> bool:
        if self.plan.probe_lost(probe_key):
            self.stats.probes_lost += 1
            return True
        return False

    @property
    def loss_only_per_probe(self) -> bool:
        """Whether probe loss is the only fault drawn for each probe.

        Rate-limit windows and rDNS timeouts are the other per-probe
        faults.  LSP flaps are drawn once per trace, VP flaps once per
        job, and stale rDNS touches only ``lookup``, never ``dig``.
        """
        plan = self.plan
        return plan.rate_limit_share <= 0.0 and plan.rdns_timeout <= 0.0

    def loss_key_head(self, source_addr: str, dst_address: object, flow_id: object) -> "bytes | None":
        """The loss-draw text of one trace's first probes, up to the TTL.

        A first-attempt probe key is ``(source, dst, flow, ttl)``; its
        draw text is this head followed by ``"<ttl>)"``, which
        :meth:`first_probe_lost` takes.  None when the plan loses no
        probes.
        """
        if self.plan.probe_loss <= 0.0:
            return None
        return (
            f"faultplan|{self.plan.seed}|loss|"
            f"({source_addr!r}, {dst_address!r}, {flow_id!r}, "
        ).encode()

    def first_probe_lost(self, key_text: bytes) -> bool:
        """:meth:`probe_lost` for a probe given by its loss-draw text."""
        if seeded_uniform(key_text) < self.plan.probe_loss:
            self.stats.probes_lost += 1
            return True
        return False

    def rate_limited(self, router_uid: str, probe_key: object) -> bool:
        if self.plan.rate_limited(router_uid, probe_key):
            self.stats.rate_limited += 1
            return True
        return False

    def rdns_timeout(self, address: str, token: object) -> bool:
        """Whether the ``dig`` for *address* keyed by *token* times out.

        The decision depends only on ``(address, token)`` — never on
        call order — so a resumed or sharded campaign repeats it
        exactly; retries stay transient by using fresh tokens.
        """
        if self.plan.rdns_timed_out(address, token):
            self.stats.rdns_timeouts += 1
            return True
        return False

    def stale_hostname(self, address: str, hostname: str, store) -> str:
        """The hostname a combined PTR lookup should return.

        With ``stale_rdns`` active, a deterministically-chosen share of
        addresses borrow a *donor* hostname from elsewhere in *store*'s
        snapshot — the stale record a real zone accumulates when
        equipment moves between COs.  The decision and the donor are
        both keyed on the address alone, so repeated lookups agree.
        """
        if self.plan.stale_rdns <= 0.0 or not self.plan.rdns_stale(address):
            return hostname
        if self._stale_donors is None:
            self._stale_donors = sorted(
                {name for _, name in store.snapshot_items()}
            )
        if not self._stale_donors:
            return hostname
        index = self.plan.stale_donor_index(address, len(self._stale_donors))
        donor = self._stale_donors[index]
        if donor == hostname:
            return hostname
        if address not in self._stale_seen:
            self._stale_seen.add(address)
            self.stats.stale_lookups += 1
        return donor

    def down_tunnels(self, tunnels, token: object) -> "frozenset[str]":
        """Tunnel ids flapped down for the trace identified by *token*."""
        if self.plan.lsp_flap <= 0.0 or not tunnels:
            return frozenset()
        down = frozenset(
            t.tunnel_id for t in tunnels if self.plan.lsp_down(t.tunnel_id, token)
        )
        self.stats.lsp_flaps += len(down)
        return down

    # ------------------------------------------------------------------
    # Vantage-point lifecycle (consulted by CampaignRunner)
    # ------------------------------------------------------------------
    def register_fleet(self, names) -> None:
        """Tell the injector which VPs exist so dropout picks are stable."""
        self._doomed |= set(self.plan.doomed_vps(names))

    def vp_alive(self, name: str) -> bool:
        return name not in self._dead

    def vp_flapped(self, name: str, token: object) -> bool:
        if self.plan.vp_flapped(name, token):
            self.stats.vp_flaps += 1
            return True
        return False

    def vp_add_probes(self, name: str, count: int) -> bool:
        """Account *count* probes to a VP; returns False when it dies."""
        total = self._vp_probes.get(name, 0) + count
        self._vp_probes[name] = total
        if (
            name in self._doomed
            and name not in self._dead
            and total >= self.plan.vp_dropout_after
        ):
            self._dead.add(name)
            self.stats.vps_killed.append(name)
            return False
        return True

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> "dict[str, object]":
        return {
            "plan": self.plan.as_dict(),
            "vp_probes": dict(sorted(self._vp_probes.items())),
            "doomed": sorted(self._doomed),
            "dead": sorted(self._dead),
            "stats": self.stats.as_dict(),
        }

    def restore_state(self, payload: "dict[str, object]") -> None:
        self._vp_probes = dict(payload.get("vp_probes", {}))
        self._doomed = set(payload.get("doomed", []))
        self._dead = set(payload.get("dead", []))
        self.stats = FaultStats.from_dict(payload.get("stats", {}))
