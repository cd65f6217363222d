"""SSD and SmartSSD models with page-granular write accounting.

The endurance and delayed-writeback analyses (Sections 4.3 and 6.6) hinge on
two storage behaviours this module models explicitly:

* **Page-granular writes.** NAND pages are 4 KiB; a discrete write smaller
  than a page still programs a full page.  Per-token KV entries are ~256
  bytes per head, so naive per-entry writeback amplifies writes by up to
  16x.  :meth:`SSD.write` takes the *granule* of the discrete write ops and
  accounts physical bytes accordingly.

* **Bounded program/erase budget.** Each drive has a petabytes-written (PBW)
  rating; :attr:`SSD.physical_bytes_written` feeds the endurance analysis
  of Figure 16(b).

A :class:`SmartSSD` couples an :class:`SSD` with the on-device FPGA's DRAM
channel and the internal peer-to-peer PCIe path, mirroring the commercial
device of Section 2.3: host I/O and P2P flash-to-FPGA traffic never share
the host interconnect.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.errors import CapacityError, ConfigurationError
from repro.sim.channel import Channel
from repro.sim.engine import Barrier, Event, Simulator
from repro.units import GB, KiB, TB, ceil_div


@dataclass(frozen=True)
class SSDSpec:
    """Datasheet-level description of one drive."""

    name: str
    capacity_bytes: float
    read_bandwidth: float
    write_bandwidth: float
    page_bytes: int = 4 * KiB
    pbw_rating_bytes: float = 7008 * TB  # 7.008 PB written (3-month retention)
    io_latency: float = 60e-6  # NVMe round-trip

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or self.read_bandwidth <= 0 or self.write_bandwidth <= 0:
            raise ConfigurationError(f"SSD spec {self.name!r} must have positive sizes")
        if self.page_bytes <= 0:
            raise ConfigurationError(f"SSD spec {self.name!r} page size must be positive")

    def scaled(self, read_scale: float = 1.0, write_scale: float = 1.0) -> "SSDSpec":
        """A derived spec with bandwidths scaled (fig15-style perturbations)."""
        if read_scale <= 0 or write_scale <= 0:
            raise ConfigurationError(f"SSD spec {self.name!r}: scales must be positive")
        if read_scale == 1.0 and write_scale == 1.0:
            return self
        return dataclasses.replace(
            self,
            name=f"{self.name}[x{read_scale:g}r/{write_scale:g}w]",
            read_bandwidth=self.read_bandwidth * read_scale,
            write_bandwidth=self.write_bandwidth * write_scale,
        )


#: Samsung PM9A3 3.84 TB (Table 1 baseline drive).
PM9A3 = SSDSpec(
    name="PM9A3",
    capacity_bytes=3.84 * TB,
    read_bandwidth=6.9 * GB,
    write_bandwidth=4.1 * GB,
)

#: The SmartSSD's internal NVMe drive.  P2P flash-to-FPGA reads sustain about
#: 3.0 GB/s on the real device (the paper's Figure 12a kernel microbenchmark
#: shows kernels comfortably exceeding the ~3 GB/s P2P read rate).
SMARTSSD_FLASH = SSDSpec(
    name="SmartSSD-flash",
    capacity_bytes=3.84 * TB,
    read_bandwidth=3.0 * GB,
    write_bandwidth=2.4 * GB,
)


class SSD:
    """One drive: read/write channels plus logical/physical write accounting."""

    def __init__(self, sim: Simulator, spec: SSDSpec, name: str | None = None) -> None:
        self.sim = sim
        self.spec = spec
        self.name = name or spec.name
        self.read_channel = Channel(
            sim, spec.read_bandwidth, name=f"{self.name}.read", latency=spec.io_latency
        )
        self.write_channel = Channel(
            sim, spec.write_bandwidth, name=f"{self.name}.write", latency=spec.io_latency
        )
        self.logical_bytes_read = 0.0
        self.logical_bytes_written = 0.0
        self.physical_bytes_written = 0.0
        self.stored_bytes = 0.0

    # --- capacity ------------------------------------------------------------

    def allocate(self, n_bytes: float) -> None:
        """Reserve logical capacity (prefill KV/X placement)."""
        if self.stored_bytes + n_bytes > self.spec.capacity_bytes:
            raise CapacityError(
                f"{self.name}: allocation of {n_bytes / GB:.1f} GB exceeds "
                f"capacity ({self.spec.capacity_bytes / GB:.0f} GB, "
                f"{self.stored_bytes / GB:.1f} GB in use)"
            )
        self.stored_bytes += n_bytes

    def free(self, n_bytes: float) -> None:
        """Release previously allocated logical capacity."""
        self.stored_bytes = max(0.0, self.stored_bytes - n_bytes)

    # --- I/O -------------------------------------------------------------------

    def read(self, n_bytes: float, tag: str = "read") -> Event:
        """Sequential read of ``n_bytes`` from flash."""
        self.logical_bytes_read += n_bytes
        return self.read_channel.request(n_bytes, tag)

    def read_into(self, n_bytes: float, tag: str, barrier: Barrier) -> None:
        """Like :meth:`read`, reporting completion into ``barrier``."""
        self.logical_bytes_read += n_bytes
        self.read_channel.request_into(n_bytes, tag, barrier)

    def write(self, n_bytes: float, granule: float | None = None, tag: str = "write") -> Event:
        """Write ``n_bytes``, accounting page round-up per discrete granule.

        ``granule`` is the size of each discrete write operation.  ``None``
        means one contiguous write (a single round-up to the page size);
        passing the per-entry size models the naive per-token writeback whose
        sub-page writes the delayed-writeback design avoids (Section 4.3).
        """
        physical = self._physical_bytes(n_bytes, granule)
        self.logical_bytes_written += n_bytes
        self.physical_bytes_written += physical
        return self.write_channel.request(physical, tag)

    def write_into(
        self, n_bytes: float, tag: str, barrier: Barrier, granule: float | None = None
    ) -> None:
        """Like :meth:`write`, reporting completion into ``barrier``."""
        physical = self._physical_bytes(n_bytes, granule)
        self.logical_bytes_written += n_bytes
        self.physical_bytes_written += physical
        self.write_channel.request_into(physical, tag, barrier)

    def _physical_bytes(self, n_bytes: float, granule: float | None) -> float:
        page = self.spec.page_bytes
        if n_bytes <= 0:
            return 0.0
        if granule is None or granule >= n_bytes:
            return float(ceil_div(int(n_bytes), page) * page)
        n_ops = ceil_div(int(n_bytes), int(granule))
        per_op_physical = ceil_div(int(granule), page) * page
        return float(n_ops * per_op_physical)

    # --- layer folding --------------------------------------------------------------

    def accumulators(self) -> tuple[float, float, float]:
        """(logical read, logical written, physical written) bytes so far."""
        return (
            self.logical_bytes_read,
            self.logical_bytes_written,
            self.physical_bytes_written,
        )

    def repeat(self, before: tuple[float, float, float], times: int) -> None:
        """Count ``times`` more repetitions of the I/O since ``before``."""
        read, written, physical = before
        self.logical_bytes_read += times * (self.logical_bytes_read - read)
        self.logical_bytes_written += times * (self.logical_bytes_written - written)
        self.physical_bytes_written += times * (self.physical_bytes_written - physical)

    # --- derived statistics --------------------------------------------------------

    @property
    def write_amplification(self) -> float:
        """Physical over logical bytes written (1.0 when nothing written)."""
        if self.logical_bytes_written <= 0:
            return 1.0
        return self.physical_bytes_written / self.logical_bytes_written

    @property
    def endurance_consumed(self) -> float:
        """Fraction of the drive's PBW rating consumed so far."""
        return self.physical_bytes_written / self.spec.pbw_rating_bytes


class SmartSSD:
    """A near-storage-processing device: flash + FPGA DRAM + internal P2P path.

    The host reaches the device through ``host_link`` (its PCIe lanes into
    the expansion switch).  The FPGA reaches flash through the *internal*
    P2P path, which never touches the host interconnect -- the property the
    whole attention-near-storage design exploits (Section 4.1, Figure 3b).
    """

    #: DDR4-2400 x 1 channel on the SmartSSD's FPGA, effective.
    FPGA_DRAM_BANDWIDTH = 13.0 * GB

    #: Host-facing PCIe 3.0 x4 effective bandwidth.
    HOST_LINK_BANDWIDTH = 3.2 * GB

    def __init__(
        self,
        sim: Simulator,
        index: int,
        flash_spec: SSDSpec = SMARTSSD_FLASH,
        fpga_dram_bandwidth: float | None = None,
        host_link_bandwidth: float | None = None,
    ) -> None:
        self.sim = sim
        self.index = index
        self.name = f"smartssd{index}"
        self.flash = SSD(sim, flash_spec, name=f"{self.name}.flash")
        self.fpga_dram = Channel(
            sim,
            fpga_dram_bandwidth or self.FPGA_DRAM_BANDWIDTH,
            name=f"{self.name}.fpga_dram",
        )
        self.host_link = Channel(
            sim,
            host_link_bandwidth or self.HOST_LINK_BANDWIDTH,
            name=f"{self.name}.host_link",
        )

    def p2p_read(self, n_bytes: float, tag: str = "p2p_read") -> Event:
        """Flash -> FPGA DRAM read over the internal path.

        The transfer occupies both the flash read channel and the FPGA DRAM
        channel; flash (~3 GB/s) is the bottleneck on the real device.
        """
        done = Barrier(self.sim, name=tag)
        self.p2p_read_into(n_bytes, tag, done)
        return done

    def p2p_read_into(self, n_bytes: float, tag: str, barrier: Barrier) -> None:
        """Like :meth:`p2p_read`, reporting both hops into ``barrier``."""
        self.flash.read_into(n_bytes, tag, barrier)
        self.fpga_dram.request_into(n_bytes, tag, barrier)
