"""A per-layer host-time ledger built from outside the program.

In a traced sample, :class:`Ledger` replaces each layer's public entry
points (the methods in :data:`ENTRY_POINTS`) with wrappers that record a
span: layer, entry point, start, end, parent span and the id of the
display update being processed, if any.  Spans stay in memory (columnar
arrays) and are written out once the sample ends.

A span's *self* time is its duration minus the durations of its direct
children.  The engine is single-threaded and every call nests inside its
caller, so self times telescope: summed over every span they equal the
summed duration of the root spans, and ``run_s`` minus that root time
is the run time no span covers (the ``unattributed`` row).
"""

from __future__ import annotations

import functools
import importlib
import itertools
from array import array
from time import perf_counter
from typing import Dict, List, Tuple

import numpy as np

#: layer -> (module path, class name, public methods).  Order is the
#: layer id used in the span arrays.
ENTRY_POINTS: Dict[str, List[Tuple[str, str, Tuple[str, ...]]]] = {
    "workloads": [
        ("repro.workloads.input_model", "InputModel", ("sample_session",)),
        ("repro.workloads.display_model", "DisplayModel", ("sample_update",)),
        ("repro.workloads.session", "UserSession", ("run",)),
    ],
    "framebuffer": [
        ("repro.framebuffer.painter", "Painter", ("apply",)),
        (
            "repro.framebuffer.framebuffer",
            "FrameBuffer",
            ("fill", "blit", "copy_within", "expand_bitmap"),
        ),
    ],
    "encoder": [
        ("repro.core.encoder", "SlimEncoder", ("encode_op", "encode_ops", "encode_damage")),
    ],
    "wire": [
        ("repro.core.wire", "WireCodec", ("fragment", "accept")),
    ],
    "server": [
        ("repro.server.slimdriver", "SlimDriver", ("update",)),
    ],
    "transport": [
        ("repro.transport.server", "ServerChannel", ("send_command", "handle_packet")),
        ("repro.transport.console", "ConsoleChannel", ("handle_packet",)),
    ],
    "console": [
        # A console on the engine decodes through enqueue() and the
        # decoder; process() is the stand-alone entry point.
        ("repro.console.console", "Console", ("process", "enqueue")),
        ("repro.core.decoder", "SlimDecoder", ("apply",)),
    ],
    "netsim": [
        ("repro.netsim.transport", "Network", ("send", "send_burst")),
        ("repro.netsim.engine", "Simulator", ("run", "run_until")),
    ],
    "obs": [
        ("repro.obs.capture", "RingSlimcapWriter", ("frame", "trace")),
        (
            "repro.obs.causal",
            "TraceCollector",
            (
                "begin_update", "end_update", "message_sent",
                "message_superseded", "reassembled", "decode_start",
                "painted", "command_dropped", "packet_event",
                "begin_probe", "end_probe",
            ),
        ),
    ],
}

LAYERS: Tuple[str, ...] = tuple(ENTRY_POINTS)

#: Layers whose self time is reported for the setup phase; every other
#: layer is reported for the run phase.
SETUP_LAYERS = ("workloads",)

#: The entry point whose calls open a new display-update id.
_UPDATE_ENTRY = ("SlimDriver", "update")


class Ledger:
    """Span recorder; install() wraps the entry points, uninstall() undoes it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layer = array("b")
        self.name = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.update = array("i")
        #: Index of the first run-phase span (spans before it are setup).
        self.run_begins = 0
        self.phase = 0
        self.self_s = [[0.0] * len(LAYERS), [0.0] * len(LAYERS)]
        self._stack: List[list] = []
        self._update_id = -1
        self._update_ids = itertools.count()
        self._patches: List[Tuple[type, str, object]] = []

    # -- wiring ------------------------------------------------------------
    def install(self) -> None:
        for layer_id, layer in enumerate(LAYERS):
            for module_name, class_name, methods in ENTRY_POINTS[layer]:
                cls = getattr(importlib.import_module(module_name), class_name)
                for method in methods:
                    original = cls.__dict__[method]
                    self._patches.append((cls, method, original))
                    setattr(
                        cls,
                        method,
                        self._wrap(original, layer_id, f"{class_name}.{method}",
                                   (class_name, method) == _UPDATE_ENTRY),
                    )

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._patches):
            setattr(cls, method, original)
        self._patches.clear()

    def begin_run(self) -> None:
        """Mark the end of set-up: later spans belong to the run phase."""
        self.run_begins = len(self.start)
        self.phase = 1

    def _wrap(self, fn, layer_id: int, name: str, opens_update: bool):
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack  # [child seconds, span index] per open span
        layers, names, starts, ends = self.layer, self.name, self.start, self.end
        parents, updates = self.parent, self.update
        ledger = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            parents.append(stack[-1][1] if stack else -1)
            layers.append(layer_id)
            names.append(name_id)
            starts.append(0.0)
            ends.append(0.0)
            previous_update = ledger._update_id
            if opens_update:
                ledger._update_id = next(ledger._update_ids)
            updates.append(ledger._update_id)
            frame = [0.0, index]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                ledger.self_s[ledger.phase][layer_id] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                starts[index] = t0
                ends[index] = t1
                ledger._update_id = previous_update

        return traced

    # -- results -----------------------------------------------------------
    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer: setup phase for SETUP_LAYERS, else run."""
        return {
            layer: self.self_s[0 if layer in SETUP_LAYERS else 1][layer_id]
            for layer_id, layer in enumerate(LAYERS)
        }

    def recount(self) -> np.ndarray:
        """Run-phase self seconds per layer recomputed from the stored
        spans (duration minus children via the parent links) — an
        independent check of the running sums."""
        first = self.run_begins
        start = np.frombuffer(self.start, dtype=np.float64)[first:]
        end = np.frombuffer(self.end, dtype=np.float64)[first:]
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:]
        layer = np.frombuffer(self.layer, dtype=np.int8)[first:]
        duration = end - start
        self_time = duration.copy()
        nested = parent >= first
        np.subtract.at(self_time, parent[nested] - first, duration[nested])
        return np.bincount(layer, weights=self_time, minlength=len(LAYERS))

    def root_seconds(self) -> float:
        """Summed duration of the run phase's root spans."""
        first = self.run_begins
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:]
        roots = parent < first
        start = np.frombuffer(self.start, dtype=np.float64)[first:]
        end = np.frombuffer(self.end, dtype=np.float64)[first:]
        return float((end[roots] - start[roots]).sum())

    @property
    def spans(self) -> int:
        return len(self.start)

    def save(self, path) -> None:
        """Write every span (columnar) plus the name tables to ``path``."""
        np.savez(
            path,
            layers=np.array(LAYERS),
            names=np.array(self.names),
            layer=np.frombuffer(self.layer, dtype=np.int8),
            name=np.frombuffer(self.name, dtype=np.int16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            update=np.frombuffer(self.update, dtype=np.int32),
            run_begins=np.int64(self.run_begins),
        )
