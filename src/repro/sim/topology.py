"""PCIe topology builder reproducing Figure 3 and Table 1 of the paper.

A :class:`SystemModel` wires together the host (GPU, CPU, DRAM), an array of
conventional SSDs on dedicated root ports (Figure 3a), and/or an array of
SmartSSDs behind a PCIe expansion switch (Figure 3b, the H3 Falcon 4109 of
the real testbed).  Composite transfer helpers encode the multi-hop paths
the step models use so contention on the shared host interconnect emerges
from the simulation rather than being assumed.

Symmetry-aware simulation
-------------------------
The paper's headline configurations stripe every transfer *uniformly*
across arrays of *identical* devices, so each member does exactly the same
work on its own private channels.  :func:`build_system` therefore supports
three ``symmetry`` modes:

``"auto"`` (default)
    Fold each homogeneous device array to **one representative device**
    (O(n_groups) event cost instead of O(n_devices)); arrays made
    heterogeneous by :attr:`HardwareConfig.smartssd_perturbations` fall
    back to the full-array path transparently.

``"full"``
    Always instantiate every device (the reference path the property tests
    compare against).

``"representative"``
    Require the folded path; a heterogeneous array raises
    :class:`~repro.errors.ConfigurationError` instead of silently
    simulating the wrong machine.

Folding preserves timing bit-for-bit on symmetric configurations: each
member's private channels would have seen the identical request stream, and
the shared hops (expansion uplink, host interconnect, DRAM bus) carry the
same aggregate bytes either way.  Array-wide byte/energy accounting is
reconstructed by multiplication (:mod:`repro.sim.metrics`).

``InferenceSystem.measure()`` also folds along the time axis under
``"auto"`` and ``"representative"``: once a decode step's state at a layer
boundary repeats the one a period earlier, the remaining whole periods are
accounted instead of simulated (:class:`repro.baselines.base.LayerFolding`,
exact to within float rounding).  ``"full"`` simulates every layer too.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.sim.channel import Channel
from repro.sim.devices import (
    CPU,
    GPU,
    GPU_SPECS,
    HostDRAM,
    SymmetricGroup,
    XEON_6342,
    CPUSpec,
    GPUSpec,
)
from repro.sim.engine import Barrier, Event, Simulator
from repro.sim.flash import PM9A3, SMARTSSD_FLASH, SSD, SmartSSD, SSDSpec
from repro.sim.metrics import StorageCounters
from repro.units import GB, GiB, pcie_bandwidth

#: Valid ``symmetry`` arguments to :func:`build_system`.
SYMMETRY_MODES = ("auto", "full", "representative")


@dataclass(frozen=True)
class DevicePerturbation:
    """One device's deviation from an otherwise homogeneous SmartSSD array.

    Used by ablations that degrade a single device (straggler studies in
    the fig15 family): bandwidth scales multiply the baseline spec.  Any
    non-identity perturbation makes the array asymmetric, which disables
    representative-device folding for the group.
    """

    index: int
    flash_read_scale: float = 1.0
    flash_write_scale: float = 1.0
    host_link_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ConfigurationError("perturbation index must be non-negative")
        for scale in (self.flash_read_scale, self.flash_write_scale, self.host_link_scale):
            if scale <= 0:
                raise ConfigurationError("perturbation scales must be positive")

    @property
    def is_identity(self) -> bool:
        """Whether this perturbation leaves the device unchanged."""
        return (
            self.flash_read_scale == 1.0
            and self.flash_write_scale == 1.0
            and self.host_link_scale == 1.0
        )


@dataclass(frozen=True)
class HardwareConfig:
    """Host + storage configuration (the knobs of Table 1).

    The expansion-chassis uplink defaults to 16 GB/s -- the value the paper
    profiles for ``B_PCI`` (Section 4.2); with 16 SmartSSDs providing
    ``B_SSD`` = 48 GB/s this reproduces the paper's ``B_SSD / B_PCI ~= 3``
    operating point and hence the optimal alpha of about 50%.  The GPU's
    own root port is faster (25 GB/s on PCIe 4.0 hosts) and is shared by
    weight prefetch and GDS X-cache reads.
    """

    gpu: str = "A100"
    n_conventional_ssds: int = 4
    conventional_ssd_spec: SSDSpec = PM9A3
    conventional_ssd_pcie_gen: int = 4
    n_smartssds: int = 0
    smartssd_flash_spec: SSDSpec = SMARTSSD_FLASH
    #: Overrides for future-CSD studies (Section 7.1's envisioned ISP).
    smartssd_dram_bandwidth: float | None = None
    smartssd_host_link_bandwidth: float | None = None
    host_dram_bytes: float = 512 * GiB
    host_dram_bandwidth: float = 164 * GB
    #: The GPU's x16 root port (PCIe 4.0, ~80% efficient DMA).
    host_pcie_bandwidth: float = 25 * GB
    #: The expansion chassis uplink -- the profiled ``B_PCI`` of Section 4.2.
    expansion_uplink_bandwidth: float = 16 * GB
    cpu: CPUSpec = XEON_6342
    #: Per-device deviations from the homogeneous SmartSSD array (fig15-style
    #: straggler ablations).  Any non-identity entry makes the NSP array
    #: asymmetric, disabling representative-device folding for the group.
    smartssd_perturbations: tuple[DevicePerturbation, ...] = ()

    def __post_init__(self) -> None:
        if self.gpu not in GPU_SPECS:
            known = ", ".join(sorted(GPU_SPECS))
            raise ConfigurationError(f"unknown GPU {self.gpu!r}; known: {known}")
        if self.n_conventional_ssds < 0 or self.n_smartssds < 0:
            raise ConfigurationError("device counts must be non-negative")
        if self.n_conventional_ssds == 0 and self.n_smartssds == 0:
            raise ConfigurationError("system needs at least one storage device")
        seen: set[int] = set()
        for perturbation in self.smartssd_perturbations:
            if perturbation.index >= self.n_smartssds:
                raise ConfigurationError(
                    f"perturbation targets device {perturbation.index} but the "
                    f"array has only {self.n_smartssds} SmartSSDs"
                )
            if perturbation.index in seen:
                raise ConfigurationError(
                    f"device {perturbation.index} perturbed more than once"
                )
            seen.add(perturbation.index)

    def is_symmetric_nsp_array(self) -> bool:
        """Whether every SmartSSD is identical (uniform striping holds)."""
        return all(p.is_identity for p in self.smartssd_perturbations)

    def is_symmetric_ssd_array(self) -> bool:
        """Whether every conventional drive is identical (always, today --
        a single spec covers the array; the hook exists so future per-drive
        knobs keep the folding decision in one place)."""
        return True

    def perturbation_for(self, index: int) -> DevicePerturbation | None:
        """The perturbation targeting SmartSSD ``index``, if any."""
        for perturbation in self.smartssd_perturbations:
            if perturbation.index == index:
                return perturbation
        return None

    @property
    def gpu_spec(self) -> GPUSpec:
        """The resolved GPU specification."""
        return GPU_SPECS[self.gpu]

    def conventional_link_bandwidth(self) -> float:
        """Per-drive root-port bandwidth (PCIe gen x4, 85% efficient)."""
        return pcie_bandwidth(self.conventional_ssd_pcie_gen, 4, efficiency=0.85)


def host_pcie_for_gpu(gpu: str) -> float:
    """Effective GPU root-port bandwidth: H100 hosts run PCIe 5.0 x16.

    The paper's H100 configuration owes most of its 1.39x speedup to the
    doubled host interconnect, not to GPU FLOPs -- decode is I/O-bound.
    """
    if gpu == "H100":
        return pcie_bandwidth(5, 16, efficiency=0.64)  # ~40 GB/s delivered
    return 25 * GB


class SystemModel:
    """A fully wired simulated machine.

    Attributes
    ----------
    ssds / ssd_links:
        *Simulated* conventional drives, each with a dedicated root-port
        channel (Figure 3a: "assigned PCIe root ports for SSDs").  In
        representative mode this is a single drive standing in for
        ``ssd_group.size`` identical ones.
    smartssds / expansion_uplink:
        *Simulated* NSP devices behind the expansion chassis; all of their
        host-side traffic shares the single x16 uplink (Figure 3b), while
        their internal flash-to-FPGA traffic stays on-device.  In
        representative mode a single device stands in for
        ``smartssd_group.size``.
    ssd_group / smartssd_group:
        :class:`~repro.sim.devices.SymmetricGroup` views carrying the
        logical array sizes and the accounting multipliers; striping math
        and aggregate metrics go through the groups so both simulation
        modes share one code path.
    host_pcie:
        The CPU/DRAM <-> GPU interconnect, shared by weight prefetch,
        GPU-direct X-cache reads, and activation movement.
    """

    def __init__(self, config: HardwareConfig, symmetry: str = "auto") -> None:
        if symmetry not in SYMMETRY_MODES:
            known = ", ".join(SYMMETRY_MODES)
            raise ConfigurationError(f"unknown symmetry mode {symmetry!r}; known: {known}")
        self.config = config
        self.symmetry = symmetry
        fold_ssds = self._resolve_fold(
            symmetry, config.n_conventional_ssds, config.is_symmetric_ssd_array(), "SSD"
        )
        fold_smartssds = self._resolve_fold(
            symmetry, config.n_smartssds, config.is_symmetric_nsp_array(), "SmartSSD"
        )
        self.sim = Simulator()
        self.gpu = GPU(self.sim, config.gpu_spec)
        self.cpu = CPU(self.sim, config.cpu)
        self.dram = HostDRAM(
            self.sim, config.host_dram_bytes, config.host_dram_bandwidth
        )
        self.host_pcie = Channel(self.sim, config.host_pcie_bandwidth, name="host_pcie")
        link_bw = config.conventional_link_bandwidth()
        n_sim_ssds = 1 if fold_ssds else config.n_conventional_ssds
        self.ssd_links = [
            Channel(self.sim, link_bw, name=f"ssd_link{i}") for i in range(n_sim_ssds)
        ]
        self.ssds = [
            SSD(self.sim, config.conventional_ssd_spec, name=f"ssd{i}")
            for i in range(n_sim_ssds)
        ]
        self.ssd_group = SymmetricGroup(self.ssds, config.n_conventional_ssds)
        n_sim_smartssds = 1 if fold_smartssds else config.n_smartssds
        self.smartssds = [
            self._build_smartssd(config, i) for i in range(n_sim_smartssds)
        ]
        self.smartssd_group = SymmetricGroup(self.smartssds, config.n_smartssds)
        self.expansion_uplink = (
            Channel(self.sim, config.expansion_uplink_bandwidth, name="expansion_uplink")
            if config.n_smartssds
            else None
        )

    @staticmethod
    def _resolve_fold(symmetry: str, n_devices: int, symmetric: bool, kind: str) -> bool:
        """Whether a group simulates one representative instead of all devices."""
        if symmetry == "full" or n_devices <= 1:
            return False
        if not symmetric:
            if symmetry == "representative":
                raise ConfigurationError(
                    f"symmetry='representative' requires a homogeneous {kind} "
                    "array; remove the per-device perturbations or use 'auto'"
                )
            return False  # auto: transparent fallback to the full-array path
        return True

    def _build_smartssd(self, config: HardwareConfig, index: int) -> SmartSSD:
        flash_spec = config.smartssd_flash_spec
        host_link = config.smartssd_host_link_bandwidth
        perturbation = config.perturbation_for(index)
        if perturbation is not None and not perturbation.is_identity:
            flash_spec = flash_spec.scaled(
                read_scale=perturbation.flash_read_scale,
                write_scale=perturbation.flash_write_scale,
            )
            host_link = (
                host_link or SmartSSD.HOST_LINK_BANDWIDTH
            ) * perturbation.host_link_scale
        return SmartSSD(
            self.sim,
            index,
            flash_spec=flash_spec,
            fpga_dram_bandwidth=config.smartssd_dram_bandwidth,
            host_link_bandwidth=host_link,
        )

    @property
    def symmetry_mode(self) -> str:
        """The resolved simulation mode: ``"representative"`` when any
        device group was folded, ``"full"`` otherwise."""
        if self.ssd_group.representative or self.smartssd_group.representative:
            return "representative"
        return "full"

    def drives(self) -> list[SSD]:
        """Every simulated flash drive: the conventional SSDs, then the
        SmartSSDs' own."""
        return [*self.ssds, *(dev.flash for dev in self.smartssds)]

    # --- aggregate bandwidth figures (feed the alpha model) ---------------------

    def aggregate_nsp_internal_bandwidth(self) -> float:
        """``B_SSD``: summed internal flash read bandwidth of all NSP devices."""
        return self.smartssd_group.total(lambda dev: dev.flash.spec.read_bandwidth)

    def effective_host_bandwidth(self) -> float:
        """``B_PCI``: host-interconnect bandwidth available to X-cache reads.

        Reads from the NSP array into the GPU cross the per-device links,
        the expansion uplink, and the host link; the narrowest stage governs.
        """
        if not self.smartssd_group:
            return self.host_pcie.capacity
        device_side = self.smartssd_group.total(lambda dev: dev.host_link.capacity)
        uplink = self.expansion_uplink.capacity if self.expansion_uplink else device_side
        return min(device_side, uplink, self.host_pcie.capacity)

    # --- array-wide accounting (mirrored across symmetric groups) ---------------

    def storage_counters(self) -> StorageCounters:
        """Byte counters over the *logical* storage array (both device kinds).

        In representative mode the folded group's counters are the
        representative's multiplied by the group size -- every member would
        have recorded exactly the same traffic.
        """
        return StorageCounters.of_drives(
            self.ssds, self.ssd_group.multiplier
        ) + self.smartssd_flash_counters()

    def smartssd_flash_counters(self) -> StorageCounters:
        """Byte counters over the logical NSP array's flash drives."""
        return StorageCounters.of_drives(
            (dev.flash for dev in self.smartssds), self.smartssd_group.multiplier
        )

    # --- conventional-SSD composite transfers (RAID-0 striping) -------------------

    def read_ssds_to_host(self, n_bytes: float, tag: str = "load_kv") -> Event:
        """RAID-0 read striped across all conventional drives into host DRAM."""
        if not self.ssd_group:
            raise ConfigurationError("no conventional SSDs in this system")
        share = n_bytes / self.ssd_group.size
        done = Barrier(self.sim, name=tag)
        for ssd, link in zip(self.ssds, self.ssd_links):
            ssd.read_into(share, tag, done)
            link.request_into(share, tag, done)
        self.dram.access_into(n_bytes, tag, done)
        return done

    def write_ssds_from_host(
        self, n_bytes: float, granule: float | None = None, tag: str = "store_kv"
    ) -> Event:
        """RAID-0 write striped across all conventional drives."""
        if not self.ssd_group:
            raise ConfigurationError("no conventional SSDs in this system")
        share = n_bytes / self.ssd_group.size
        done = Barrier(self.sim, name=tag)
        for ssd, link in zip(self.ssds, self.ssd_links):
            ssd.write_into(share, tag, done, granule=granule)
            link.request_into(share, tag, done)
        return done

    # --- SmartSSD composite transfers ---------------------------------------------

    def _uplink_into(self, total_bytes: float, tag: str, barrier: Barrier) -> None:
        if self.expansion_uplink is not None:
            self.expansion_uplink.request_into(total_bytes, tag, barrier)

    def host_to_nsp(self, n_bytes: float, tag: str = "nsp_in") -> Event:
        """Host -> all NSP devices, striped (new Q/K/V vectors, Section 4.1)."""
        if not self.smartssd_group:
            raise ConfigurationError("no SmartSSDs in this system")
        share = n_bytes / self.smartssd_group.size
        done = Barrier(self.sim, name=tag)
        for dev in self.smartssds:
            dev.host_link.request_into(share, tag, done)
        self._uplink_into(n_bytes, tag, done)
        return done

    def nsp_to_host(self, n_bytes: float, tag: str = "nsp_out") -> Event:
        """All NSP devices -> host (attention outputs)."""
        return self.host_to_nsp(n_bytes, tag)

    def gds_read_to_gpu(self, n_bytes: float, tag: str = "load_kv") -> Event:
        """GPUDirect-Storage read: NSP flash -> GPU, bypassing host DRAM.

        Used by the cooperative X-cache (Section 4.2).  The transfer crosses
        the device flash channels, per-device host links, the expansion
        uplink, and the host interconnect; with 16 devices the uplink/host
        interconnect is the bottleneck (B_PCI).
        """
        if not self.smartssd_group:
            raise ConfigurationError("no SmartSSDs in this system")
        share = n_bytes / self.smartssd_group.size
        done = Barrier(self.sim, name=tag)
        for dev in self.smartssds:
            dev.flash.read_into(share, tag, done)
            dev.host_link.request_into(share, tag, done)
        self._uplink_into(n_bytes, tag, done)
        self.host_pcie.request_into(n_bytes, tag, done)
        return done

    def nsp_flash_read_to_gpu_via_host(self, n_bytes: float, tag: str) -> Event:
        """NSP flash -> host -> GPU (weight loads for >100B models on HILOS)."""
        return self.gds_read_to_gpu(n_bytes, tag)

    def write_nsp_from_host(
        self, n_bytes: float, granule: float | None = None, tag: str = "store_kv"
    ) -> Event:
        """Host -> NSP flash write, striped across devices."""
        if not self.smartssd_group:
            raise ConfigurationError("no SmartSSDs in this system")
        share = n_bytes / self.smartssd_group.size
        done = Barrier(self.sim, name=tag)
        for dev in self.smartssds:
            dev.flash.write_into(share, tag, done, granule=granule)
            dev.host_link.request_into(share, tag, done)
        self._uplink_into(n_bytes, tag, done)
        return done

    def dram_to_gpu(self, n_bytes: float, tag: str = "load_weight") -> Event:
        """Host DRAM -> GPU over the host interconnect (weight prefetch)."""
        done = Barrier(self.sim, name=tag)
        self.dram.access_into(n_bytes, tag, done)
        self.host_pcie.request_into(n_bytes, tag, done)
        return done

    def gpu_to_dram(self, n_bytes: float, tag: str = "store_kv") -> Event:
        """GPU -> host DRAM (new KV entries into the writeback buffer)."""
        return self.dram_to_gpu(n_bytes, tag)


def build_system(
    config: HardwareConfig | None = None, symmetry: str = "auto", **overrides
) -> SystemModel:
    """Construct a :class:`SystemModel` from a config (or keyword overrides).

    ``symmetry`` selects the simulation mode: ``"auto"`` folds each
    homogeneous device array to a representative device (and transparently
    falls back to the full array when per-device perturbations make it
    heterogeneous), ``"full"`` always simulates every device, and
    ``"representative"`` demands the folded path (raising on heterogeneous
    arrays).  See the module docstring for the equivalence argument.
    """
    if config is None:
        config = HardwareConfig(**overrides)
    elif overrides:
        raise ConfigurationError("pass either a config object or overrides, not both")
    return SystemModel(config, symmetry=symmetry)
