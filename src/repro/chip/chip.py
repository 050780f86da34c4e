"""The multi-core POWER5 chip: N SMT cores behind one shared bus.

A :class:`Chip` owns ``n_cores`` independent :class:`repro.core.SMTCore`
instances and, for ``n_cores > 1``, a :class:`SharedChipBus` whose
:class:`CorePort` hooks are installed as each core's
``hierarchy.chip_port``.  Cores only interact through that bus, and the
bus schedules grants by *occupancy* (earliest feasible future slot, the
same idiom as the per-core DRAM bus), so the chip can step its cores in
``sync_quantum`` slices without changing any result: a core running
ahead of its siblings within a slice books bus slots at decode time
exactly as a lock-stepped core would.

For ``n_cores == 1`` no bus is built and ``step`` delegates whole cycle
counts straight to the core -- a one-core chip is bit-identical to a
bare ``SMTCore`` (asserted by ``tests/test_chip_differential.py``).

Cores restart their local clock at 0 on every ``load``; the chip keeps
one monotonic chip clock (:attr:`now`) and translates via the port's
``offset``, set to the chip cycle of each dispatch.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.chip.bus import CorePort, SharedChipBus
from repro.chip.config import ChipConfig
from repro.core import SMTCore, make_core


class Chip:
    """``n_cores`` SMT cores stepping against one chip clock."""

    def __init__(self, config: ChipConfig | None = None):
        self.config = config if config is not None else ChipConfig()
        self.cores = [make_core(self.config.core)
                      for _ in range(self.config.n_cores)]
        if self.config.n_cores > 1:
            self.bus: SharedChipBus | None = SharedChipBus(self.config)
            self._ports: list[CorePort | None] = []
            for core_id, core in enumerate(self.cores):
                port = CorePort(self.bus, core_id)
                core.hierarchy.chip_port = port
                self._ports.append(port)
        else:
            self.bus = None
            self._ports = [None]
        #: Chip-global cycle counter (monotonic across dispatches).
        self.now = 0
        self._active = [False] * self.config.n_cores
        self._offsets = [0] * self.config.n_cores

    @property
    def n_cores(self) -> int:
        return self.config.n_cores

    def load_core(self, core_id: int, sources: Sequence,
                  priorities: tuple[int, int] = (4, 4),
                  privileges: tuple[str, str] = ("user", "user")
                  ) -> SMTCore:
        """(Re)load one core with new workloads and mark it active.

        The core's local clock restarts at 0; the chip records the
        current chip cycle as the core's dispatch offset so shared-bus
        grants land in chip-global time.
        """
        core = self.cores[core_id]
        core.load(sources, priorities=priorities, privileges=privileges)
        self._offsets[core_id] = self.now
        port = self._ports[core_id]
        if port is not None:
            port.offset = self.now
        self._active[core_id] = True
        return core

    def idle_core(self, core_id: int) -> None:
        """Mark a core idle: ``step`` stops advancing it."""
        self._active[core_id] = False

    def core_offset(self, core_id: int) -> int:
        """Chip cycle at which the core's current workload was loaded."""
        return self._offsets[core_id]

    def core_idle(self, core_id: int) -> bool:
        """True when a core has fully drained its current workloads.

        ``all_finished`` alone still leaves in-flight loads that the
        drain loop must retire before results are exact; require both.
        """
        core = self.cores[core_id]
        return (core.all_finished()
                and not any(th is not None and th.inflight
                            for th in core._threads))

    def step(self, cycles: int) -> None:
        """Advance the chip clock by ``cycles``, stepping active cores.

        Multi-core chips advance in ``sync_quantum`` slices, pruning
        the shared bus between slices; cores are stepped in fixed
        (core-id) order, and since they interact only through the
        occupancy-scheduled bus the quantum size and order never change
        simulated results -- only how far arbitration state runs ahead.
        """
        if self.config.n_cores == 1:
            if self._active[0]:
                self.cores[0].step(cycles)
            self.now += cycles
            return
        quantum = self.config.sync_quantum
        remaining = cycles
        bus = self.bus
        while remaining > 0:
            q = quantum if remaining >= quantum else remaining
            bus.advance(self.now)
            for core_id, core in enumerate(self.cores):
                if self._active[core_id]:
                    core.step(q)
            self.now += q
            remaining -= q
