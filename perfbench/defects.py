"""Reproduce the two transport defects NOTES.md records.

``storm``  lossy_recovery's population, sessions and 5% loss with
           DisplayChannel's *default* damage map (1024 entries).  A
           24-px full-screen recovery at 1280x1024 needs more messages
           than the map holds, so a refresh evicts its own entries; once
           one of them is lost the server refreshes again, forever.
           Probed in 1 s slices and stopped once a user passes
           ``STORM_REFRESHES`` refreshes or :data:`STORM_NACKS` NACKs,
           which bounds the host time and memory.
``wifi``   display sessions with every console behind the ``wifi``
           profile (jitter plus Gilbert-Elliott burst loss), stopped at
           a fixed horizon; reports consoles that diverge or storm.

    python3 perfbench/defects.py storm --sets 0-9
    python3 perfbench/defects.py wifi --users 2 --seconds 20 --sets 1-6

Each probe takes one input set of the benchmark's pool, derived as the
benchmark derives it.  Prints one line per input set and a total;
writes nothing.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from repro.console.console import Console  # noqa: E402
from repro.framebuffer.framebuffer import FrameBuffer  # noqa: E402
from repro.netsim.backend import LocalBackend  # noqa: E402
from repro.netsim.profiles import get_profile  # noqa: E402
from repro.netsim.transport import Network  # noqa: E402
from repro.server.slimdriver import SlimDriver  # noqa: E402
from repro.transport.console import ConsoleChannel  # noqa: E402
from repro.transport.server import ServerChannel  # noqa: E402
from repro.units import DISPLAY_HEIGHT, DISPLAY_WIDTH, ETHERNET_100  # noqa: E402
from repro.workloads.apps import BENCHMARK_APPS  # noqa: E402
from rigs import APP_ORDER, STORM_REFRESHES, CampusRig, input_seed, make_rig  # noqa: E402


def index_range(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


#: A user whose console sent more NACKs than this is NACK-storming; the
#: probe stops there, since a storm's event backlog grows without bound.
STORM_NACKS = 20_000

#: Address-space cap for a probe: a storm must fail here, not starve the host.
MEMORY_LIMIT = 2 << 30


def run_watching(sim, horizon: float, pairs):
    """Advance in 1 s slices; stop at the first storm.

    ``pairs`` holds each user's (ServerChannel, ConsoleChannel).  Returns
    the storming user's index, or None when the horizon is reached.
    """
    step = 0
    while sim.now < horizon:
        step += 1
        sim.run_until(min(float(step), horizon))
        for user, (server, console) in enumerate(pairs):
            if (
                server.stats.refreshes > STORM_REFRESHES
                or console.stats.nacks_sent > STORM_NACKS
            ):
                return user
    return None


def storm_line(user: int, pairs, now: float, started: float) -> str:
    server, console = pairs[user]
    return (
        f"STORM user {user} ({APP_ORDER[user % len(APP_ORDER)]}): "
        f"{server.stats.refreshes} refreshes, {console.stats.nacks_sent} NACKs "
        f"by t={now:.0f} s ({time.perf_counter() - started:.1f} host s)"
    )


def probe_storm(seed: int) -> str:
    benchmark = make_rig("lossy_recovery")
    rig = CampusRig(**dict(benchmark.config, damage_capacity=1024))
    rig.setup(seed)
    started = time.perf_counter()
    pairs = [(c.server_channel, c.console_channel) for c in rig.channels]
    storm = run_watching(rig.sim, rig.horizon, pairs)
    if storm is not None:
        return storm_line(storm, pairs, rig.sim.now, started)
    outcome = rig.outcome()
    return (
        f"{outcome.failed}/{outcome.checks} consoles failed"
        + "".join(f"; {problem}" for problem in outcome.problems)
    )


def probe_wifi(seed: int, users: int, seconds: float, horizon: float) -> str:
    profile = get_profile("wifi")
    streams = np.random.SeedSequence(seed).spawn(2 * users)
    sim = LocalBackend()
    network = Network(sim, default_rate_bps=ETHERNET_100)
    sessions = []
    for user in range(users):
        app = BENCHMARK_APPS[APP_ORDER[user % len(APP_ORDER)]]
        rng = np.random.default_rng(streams[2 * user])
        framebuffer = FrameBuffer(DISPLAY_WIDTH, DISPLAY_HEIGHT)
        console = Console(
            DISPLAY_WIDTH, DISPLAY_HEIGHT, sim=sim, address=f"console{user}"
        )
        console_channel = ConsoleChannel(
            console, network, server_address=f"server{user}"
        )
        server_channel = ServerChannel(
            framebuffer, network, sim, address=f"server{user}",
            console_address=f"console{user}",
        )
        console_channel.attach(
            profile=profile, rng=np.random.default_rng(streams[2 * user + 1])
        )
        server_channel.attach()
        driver = SlimDriver(
            framebuffer=framebuffer, send=server_channel.send_command,
            track_baselines=False,
        )
        display = app.display_model()
        for index, event in enumerate(app.input_model.sample_session(rng, seconds)):
            ops = display.sample_update(rng, seed=index)
            when = event.time + 0.001
            sim.schedule_at(when, lambda d=driver, w=when, o=ops: d.update(w, o))
        sessions.append((framebuffer, console, server_channel, console_channel))
    started = time.perf_counter()
    pairs = [(server, console_channel) for _, _, server, console_channel in sessions]
    storm = run_watching(sim, horizon, pairs)
    if storm is not None:
        return storm_line(storm, pairs, sim.now, started)
    lines = []
    for user, (framebuffer, console, server, console_channel) in enumerate(sessions):
        converged = framebuffer.equals(console.framebuffer)
        if not (converged and server.converged):
            lines.append(
                f"user {user}: {'pixel-exact' if converged else 'DIVERGED'}, "
                f"{'resolved' if server.converged else 'UNRESOLVED'}, "
                f"{server.stats.refreshes} refreshes, "
                f"{console_channel.stats.nacks_sent} NACKs"
            )
    return "; ".join(lines) if lines else f"all {users} consoles pixel-exact"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("defect", choices=("storm", "wifi"))
    parser.add_argument(
        "--sets", type=index_range, default=index_range("0-9"),
        help="input sets of the benchmark's pool to probe",
    )
    parser.add_argument("--users", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--horizon", type=float, default=60.0)
    args = parser.parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    probes = bad = 0
    for index in args.sets:
        # The pool's input set, derived as the benchmark derives it.
        derived = input_seed(index)
        if args.defect == "storm":
            line = probe_storm(derived)
            healthy = line.startswith("0/")
        else:
            line = probe_wifi(derived, args.users, args.seconds, args.horizon)
            healthy = line.startswith("all ")
        probes += 1
        bad += not healthy
        print(f"input set {index}: {line}", flush=True)
    print(f"{bad} of {probes} input sets with a storming or diverged user")
    return 0


if __name__ == "__main__":
    sys.exit(main())
