"""The benchmark's workloads: inputs from a seed, the simulated system
built from public APIs, its run, and the checks on its results.

Every rig follows one life cycle, which ``sample.py`` times:

``setup(seed)``  generate every input up front and build the system
                 (the ``setup_s`` interval);
``run()``        fire the engine until the end condition (``run_s``);
``outcome()``    check the results and gather the digest material and
                 the per-layer counts (untimed).

Inputs are open-loop in simulated time: each update is scheduled at its
model-drawn instant whether or not earlier work has finished.
"""

from __future__ import annotations

import hashlib
import struct
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.experiments.fig11 import PAPER_IMPLIED_BPS
from repro.framebuffer.framebuffer import FrameBuffer
from repro.loadgen.generator import NetworkLoadGenerator, TrafficPattern
from repro.loadgen.yardstick import NetworkYardstick
from repro.netsim.backend import LocalBackend
from repro.netsim.transport import Endpoint, Network
from repro.obs import FlightRecorder, record_flight, use_obs
from repro.transport.channel import DisplayChannel
from repro.units import DISPLAY_HEIGHT, DISPLAY_WIDTH, ETHERNET_100
from repro.workloads.apps import BENCHMARK_APPS, PHOTOSHOP
from repro.workloads.session import run_user_study

#: Fig 8's four paper applications, assigned round-robin (equal shares).
APP_ORDER = ("Photoshop", "Netscape", "FrameMaker", "PIM")

#: Per-layer counts every rig reports (0 where a layer does no work).
COUNT_NAMES = (
    "workloads.updates", "framebuffer.pixels", "encoder.commands",
    "encoder.compression", "wire.datagrams", "wire.bytes", "server.updates",
    "transport.nacks", "transport.recoveries", "transport.refreshes",
    "transport.useful_frac", "netsim.events", "netsim.packets",
    "netsim.queue_wait_s", "netsim.drops", "netsim.losses", "netsim.fast_frac",
    "console.commands", "console.busy_sim_s", "loadgen.packets",
    "loadgen.bytes", "loadgen.rtt_samples", "obs.frames", "obs.ring_bytes",
)

#: A user whose server performed more full-screen refreshes than this is
#: reported as refresh-storming (a healthy lossy session needs a few).
STORM_REFRESHES = 20


@dataclass
class Outcome:
    """What one finished run hands back to the sample."""

    users: int
    sim_seconds: float
    checks: int
    failed: int
    digest: str
    counts: Dict[str, float]
    problems: List[str] = field(default_factory=list)


class _Digest:
    """sha256 over a canonical stream of simulated results."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def ints(self, *values: int) -> None:
        self._hash.update(struct.pack(f"<{len(values)}q", *values))

    def floats(self, values) -> None:
        array = np.asarray(values, dtype="<f8")
        self._hash.update(struct.pack("<q", array.size))
        self._hash.update(array.tobytes())

    def pixels(self, framebuffer: FrameBuffer) -> None:
        self._hash.update(framebuffer.read(framebuffer.bounds).tobytes())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _fabric_counts(network: Network, addresses, contended) -> Dict[str, float]:
    """netsim counts over every link of the named endpoints.

    ``contended`` names the uplinks whose packet-weighted mean queue
    delay is the workload's ``netsim.queue_wait_s``.
    """
    injected = hops = fast_hops = drops = losses = 0
    wait_total = 0.0
    wait_packets = 0
    for address in addresses:
        for link in (network.uplink(address), network.downlink(address)):
            stats = link.stats
            hops += stats.packets_sent
            # The fabric exposes no public flag for its transit path; a
            # link without the private one has only the fast path.
            if getattr(link, "_fast", True):
                fast_hops += stats.packets_sent
            drops += stats.packets_dropped
            losses += stats.packets_lost
        uplink = network.uplink(address).stats
        injected += uplink.packets_sent + uplink.packets_dropped
        if address in contended:
            wait_total += uplink.queue_delay_total
            wait_packets += uplink.packets_sent
    return {
        "netsim.packets": injected,
        "netsim.drops": drops,
        "netsim.losses": losses,
        "netsim.fast_frac": fast_hops / hops if hops else 0.0,
        "netsim.queue_wait_s": wait_total / wait_packets if wait_packets else 0.0,
    }


class CampusRig:
    """Paper-app users, each on a native desktop through the full pipeline.

    SlimDriver -> ServerChannel -> WireCodec -> Network -> ConsoleChannel
    -> Console, one :class:`DisplayChannel` per user, all sharing one
    engine and one switched 100 Mbps LAN.

    Args:
        users: Population, assigned to :data:`APP_ORDER` round-robin.
        seconds: Simulated length of every user's session.
        loss_rate: Bernoulli loss on each server's link pair (NACKs
            cross it too); 0 for a lossless LAN.
        horizon: Stop at this simulated instant instead of draining, so
            a channel that never converges cannot hang the run.
        observed: Arm a flight recorder (causal tracer + capture ring)
            the way ``python -m repro.experiments`` does by default.
    """

    def __init__(
        self,
        users: int,
        seconds: float,
        loss_rate: float = 0.0,
        horizon: Optional[float] = None,
        observed: bool = False,
        damage_capacity: int = 1024,
        width: int = DISPLAY_WIDTH,
        height: int = DISPLAY_HEIGHT,
    ) -> None:
        self.users = users
        self.seconds = seconds
        self.loss_rate = loss_rate
        self.horizon = horizon
        self.observed = observed
        self.damage_capacity = damage_capacity
        self.width = width
        self.height = height
        self.config = dict(
            users=users, seconds=seconds, loss_rate=loss_rate, horizon=horizon,
            observed=observed, damage_capacity=damage_capacity,
            width=width, height=height,
        )
        self._stack = ExitStack()
        self.recorder: Optional[FlightRecorder] = None

    # -- life cycle --------------------------------------------------------
    def setup(self, seed: int) -> None:
        obs = None
        if self.observed:
            self.recorder = FlightRecorder(out_dir=None, label="perfbench")
            obs = self.recorder.obs_context()
            self._stack.enter_context(record_flight(self.recorder))
            self._stack.enter_context(use_obs(obs))
        streams = np.random.SeedSequence(seed).spawn(2 * self.users)
        self.sim = LocalBackend()
        self.network = Network(self.sim, default_rate_bps=ETHERNET_100, obs=obs)
        self.channels: List[DisplayChannel] = []
        self.drivers = []
        self.updates = 0
        for user in range(self.users):
            app = BENCHMARK_APPS[APP_ORDER[user % len(APP_ORDER)]]
            rng = np.random.default_rng(streams[2 * user])
            display = app.display_model()
            display.display_w, display.display_h = self.width, self.height
            display.display_area = self.width * self.height
            events = app.input_model.sample_session(rng, self.seconds)
            inputs = [
                (event.time + 0.001, display.sample_update(rng, seed=index))
                for index, event in enumerate(events)
            ]
            channel = DisplayChannel(
                FrameBuffer(self.width, self.height),
                sim=self.sim,
                network=self.network,
                console_address=f"console{user}",
                server_address=f"server{user}",
                loss_rate=self.loss_rate,
                seed=int(streams[2 * user + 1].generate_state(1)[0]),
                damage_capacity=self.damage_capacity,
                obs=obs,
            )
            driver = channel.make_driver(track_baselines=False)
            for when, ops in inputs:
                self.sim.schedule_at(when, _updater(driver, when, ops))
            self.updates += len(inputs)
            self.channels.append(channel)
            self.drivers.append(driver)

    def run(self) -> None:
        with self._stack:
            if self.horizon is None:
                self.sim.run()
            else:
                self.sim.run_until(self.horizon)

    def outcome(self) -> Outcome:
        digest = _Digest()
        failed = 0
        problems: List[str] = []
        counts = dict.fromkeys(COUNT_NAMES, 0)
        first_send = display_bytes = 0
        for user, (channel, driver) in enumerate(zip(self.channels, self.drivers)):
            server = channel.server_channel.stats
            console = channel.console_channel.stats
            converged, resolved = channel.converged, channel.resolved
            if not (converged and resolved):
                failed += 1
                problems.append(
                    f"user {user} ({APP_ORDER[user % len(APP_ORDER)]}): "
                    f"{'pixel-exact' if converged else 'DIVERGED'}, "
                    f"{'resolved' if resolved else 'UNRESOLVED'}, "
                    f"{server.refreshes} refreshes, {console.nacks_sent} NACKs"
                )
            elif server.refreshes > STORM_REFRESHES:
                problems.append(
                    f"user {user}: converged after {server.refreshes} refreshes"
                )
            digest.ints(
                server.wire_bytes, driver.stats.commands, console.nacks_sent,
                server.recoveries, server.refreshes,
                int(converged), int(resolved),
            )
            digest.pixels(channel.framebuffer)
            digest.pixels(channel.console.framebuffer)
            uplink = self.network.uplink(channel.server_channel.address).stats
            counts["framebuffer.pixels"] += driver.stats.pixels
            counts["encoder.commands"] += (
                driver.stats.commands + server.recovery_commands
            )
            counts["wire.datagrams"] += uplink.packets_sent + uplink.packets_dropped
            counts["wire.bytes"] += server.wire_bytes
            counts["server.updates"] += driver.stats.updates
            counts["transport.nacks"] += console.nacks_sent
            counts["transport.recoveries"] += server.recoveries
            counts["transport.refreshes"] += server.refreshes
            counts["console.commands"] += channel.console.stats.commands_processed
            counts["console.busy_sim_s"] += channel.console.stats.busy_time
            first_send += server.wire_bytes - server.recovery_bytes
            display_bytes += server.wire_bytes
        servers = [c.server_channel.address for c in self.channels]
        consoles = [c.console_channel.console.address for c in self.channels]
        fabric = _fabric_counts(self.network, servers + consoles, set(servers))
        for address in servers + consoles:
            for link in (self.network.uplink(address), self.network.downlink(address)):
                digest.ints(link.stats.packets_dropped, link.stats.packets_lost)
        raw = sum(d.stats.pixels for d in self.drivers) * 3
        wire = sum(d.stats.wire_bytes for d in self.drivers)
        counts.update(fabric)
        counts.update(
            {
                "workloads.updates": self.updates,
                "encoder.compression": raw / wire if wire else 0.0,
                "transport.useful_frac": (
                    first_send / display_bytes if display_bytes else 0.0
                ),
                "netsim.events": self.sim.events_processed,
                "obs.frames": (
                    self.recorder.capture.frames_written if self.recorder else 0
                ),
                "obs.ring_bytes": (
                    self.recorder.capture.ring_bytes if self.recorder else 0
                ),
            }
        )
        return Outcome(
            users=self.users,
            sim_seconds=self.horizon if self.horizon is not None else self.seconds,
            checks=self.users,
            failed=failed,
            digest=digest.hexdigest(),
            counts=counts,
            problems=problems,
        )


def _updater(driver, when: float, ops):
    def fire() -> None:
        driver.update(when, ops)

    return fire


class KneeRig:
    """The Fig 11 rig near the Photoshop knee.

    A network yardstick (64 B up / 1200 B down / 150 ms think) shares the
    server's link with background load generators replaying Photoshop
    user-study profiles at the paper-implied per-user intensity.  As in
    ``repro.experiments.fig11``, the 512 KiB buffer sits on the
    switch->server port (which carries only yardstick requests); the
    background load queues on the server's unbounded uplink.

    Args:
        users: Background users.
        seconds: Simulated length of the run.
        study_users: Users in the accounting-only Photoshop study whose
            profiles the generators replay.
        study_seconds: Length of each study session.
    """

    def __init__(
        self,
        users: int,
        seconds: float,
        study_users: int,
        study_seconds: float,
    ) -> None:
        self.users = users
        self.seconds = seconds
        self.study_users = study_users
        self.study_seconds = study_seconds
        self.config = dict(
            users=users, seconds=seconds, study_users=study_users,
            study_seconds=study_seconds,
        )

    def setup(self, seed: int) -> None:
        traces, profiles = run_user_study(
            PHOTOSHOP,
            n_users=self.study_users,
            duration=self.study_seconds,
            seed=seed,
        )
        self.updates = sum(len(trace.updates) for trace in traces)
        per_user = float(np.mean([p.mean_bandwidth_bps() for p in profiles]))
        scale = PAPER_IMPLIED_BPS[PHOTOSHOP.name] / per_user
        self.sim = LocalBackend()
        self.network = Network(self.sim, default_rate_bps=ETHERNET_100)
        self.yardstick = NetworkYardstick(
            self.sim, self.network, console_addr="console",
            server_addr="server", warmup=5.0,
        )
        self.network.attach(
            Endpoint("console", on_receive=self.yardstick.handle_console_packet)
        )
        self.network.attach(
            Endpoint("server", on_receive=self.yardstick.handle_server_packet),
            queue_limit_bytes=512 * 1024,
        )
        self.network.attach(Endpoint("sink"))
        rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
        self.generators = []
        for index in range(self.users):
            generator = NetworkLoadGenerator(
                self.sim,
                self.network,
                src="server",
                dst="sink",
                profile=profiles[index % len(profiles)],
                pattern=TrafficPattern(updates_per_second=5.0, active_fraction=0.9),
                rng=np.random.default_rng(rng.integers(0, 2**63)),
                flow=f"bg{index}",
                scale=scale,
            )
            generator.start()
            self.generators.append(generator)
        self.yardstick.start()

    def run(self) -> None:
        self.sim.run_until(self.seconds)

    def outcome(self) -> Outcome:
        digest = _Digest()
        digest.floats(self.yardstick.rtts)
        digest.ints(self.yardstick.lost)
        addresses = ("console", "server", "sink")
        for address in addresses:
            for link in (self.network.uplink(address), self.network.downlink(address)):
                digest.ints(link.stats.packets_dropped, link.stats.packets_lost)
        digest.ints(*(g.bytes_emitted for g in self.generators))
        problems = []
        failed = 0
        if not self.yardstick.rtts:
            failed = 1
            problems.append("yardstick collected no round trips")
        counts = dict.fromkeys(COUNT_NAMES, 0)
        counts.update(_fabric_counts(self.network, addresses, {"server"}))
        counts.update(
            {
                "workloads.updates": self.updates,
                "netsim.events": self.sim.events_processed,
                "loadgen.packets": sum(g.packets_emitted for g in self.generators),
                "loadgen.bytes": sum(g.bytes_emitted for g in self.generators),
                "loadgen.rtt_samples": len(self.yardstick.rtts),
            }
        )
        return Outcome(
            users=self.users + 1,
            sim_seconds=self.seconds,
            checks=1,
            failed=failed,
            digest=digest.hexdigest(),
            counts=counts,
            problems=problems,
        )


#: The benchmark's workloads at their measured size and at the tiny size
#: the benchmark's own tests use.  NOTES.md records why each was chosen.
WORKLOADS = {
    "campus_lan": {
        "full": lambda: CampusRig(users=12, seconds=180.0),
        "tiny": lambda: CampusRig(users=4, seconds=4.0, width=320, height=240),
    },
    "campus_observed": {
        "full": lambda: CampusRig(users=12, seconds=180.0, observed=True),
        "tiny": lambda: CampusRig(
            users=4, seconds=4.0, observed=True, width=320, height=240
        ),
    },
    "fabric_knee": {
        # Each background user replays its own study profile once
        # (seconds == study seconds), so every input set offers the
        # same bytes.
        "full": lambda: KneeRig(
            users=120, seconds=30.0, study_users=120, study_seconds=30.0
        ),
        "tiny": lambda: KneeRig(
            users=20, seconds=8.0, study_users=2, study_seconds=8.0
        ),
    },
    "lossy_recovery": {
        # The default damage map (1024) refresh-storms at this size: NOTES.md (a).
        "full": lambda: CampusRig(
            users=12, seconds=120.0, loss_rate=0.05, horizon=150.0,
            damage_capacity=8192,
        ),
        "tiny": lambda: CampusRig(
            users=4, seconds=4.0, loss_rate=0.05, horizon=10.0,
            damage_capacity=8192, width=320, height=240,
        ),
    },
}


def input_seed(index: int) -> int:
    """The seed input set ``index`` of a workload's pool is generated from."""
    return int(np.random.SeedSequence([index, 0]).generate_state(1)[0])


def make_rig(workload: str, size: str = "full"):
    return WORKLOADS[workload][size]()


def describe(rig) -> str:
    """A fingerprint of a rig's configuration (keys the digest table)."""
    return f"{type(rig).__name__}{sorted(rig.config.items())}"
