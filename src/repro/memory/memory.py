"""A simple region-based flat memory.

The memory is split into named regions (``.text``, ``.data``, stack, heap,
ROP stack, …).  Reads and writes must fall entirely inside one mapped region;
anything else raises :class:`MemoryError_`, which the emulator reports as a
fault — the behaviour the paper's P2 predicate relies on when brute-forced
branches send ``rsp`` into unintended code.

Two properties matter for throughput, because every emulated instruction
funnels through here:

* **Fast lookup** — regions are kept address-sorted so :meth:`Memory.region_at`
  is a bisect over the start addresses, fronted by a last-region-hit cache
  (almost all consecutive accesses hit the same region: the stack during ROP
  dispatch, ``.text`` during fetch).
* **Cheap forking** — :meth:`Memory.snapshot` is copy-on-write: forks share
  the backing bytearrays with their parent until either side writes, so the
  attack engines (shadow/DSE/TDS/ROPMEMU) can fork per execution without
  deep-copying a multi-megabyte stack each time.

Every region also carries a monotonically increasing ``generation`` counter,
bumped on each store into it.  The emulator's decode cache keys on it, which
keeps cached decodes correct in the presence of self-modifying code and
ROP-materialized instructions.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional

#: Truncation mask per access width; avoids recomputing ``(1 << (8*size)) - 1``
#: on every store (kept local so the memory layer stays import-free of cpu).
_INT_MASKS: Dict[int, int] = {1: 0xFF, 2: 0xFFFF, 4: 0xFFFFFFFF,
                              8: 0xFFFFFFFFFFFFFFFF}


class MemoryError_(RuntimeError):
    """Raised on out-of-bounds or unmapped accesses."""


class Region:
    """A contiguous mapped memory region.

    Attributes:
        name: human readable name (section or runtime area).
        start: first mapped address.
        data: backing byte storage.
        writable: whether stores are permitted.
        shared: True while ``data`` is shared copy-on-write with another
            :class:`Memory` (parent or fork); the first store detaches it.
        generation: store counter; consumers (the emulator decode cache) use
            it to detect that cached views of this region went stale.
    """

    __slots__ = ("name", "start", "data", "writable", "shared", "generation")

    def __init__(self, name: str, start: int, data: bytearray,
                 writable: bool = True, shared: bool = False,
                 generation: int = 0) -> None:
        self.name = name
        self.start = start
        self.data = data
        self.writable = writable
        self.shared = shared
        self.generation = generation

    @property
    def end(self) -> int:
        """One past the last mapped address."""
        return self.start + len(self.data)

    def detach(self) -> None:
        """Privatize the backing storage (first write after a COW fork)."""
        self.data = bytearray(self.data)
        self.shared = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Region(name={self.name!r}, start={self.start:#x}, "
                f"size={len(self.data):#x}, writable={self.writable})")


class Memory:
    """Region-based flat memory with little-endian integer accessors."""

    def __init__(self) -> None:
        self._regions: List[Region] = []
        self._starts: List[int] = []
        self._hit: Optional[Region] = None

    def map(self, name: str, start: int, size: int, data: bytes = b"",
            writable: bool = True) -> Region:
        """Map a new region.

        Args:
            name: region name.
            start: base address.
            size: region size in bytes (grown to fit ``data`` if needed).
            data: initial contents, zero padded to ``size``.
            writable: whether the region accepts stores.

        Raises:
            MemoryError_: if the new region overlaps an existing one.
        """
        size = max(size, len(data))
        for region in self._regions:
            if start < region.end and region.start < start + size:
                raise MemoryError_(
                    f"region {name!r} [{start:#x}, {start + size:#x}) overlaps {region.name!r}"
                )
        backing = bytearray(size)
        backing[: len(data)] = data
        region = Region(name, start, backing, writable)
        self._regions.append(region)
        self._regions.sort(key=lambda r: r.start)
        self._starts = [r.start for r in self._regions]
        return region

    @property
    def regions(self) -> List[Region]:
        """Mapped regions in address order."""
        return list(self._regions)

    def region_at(self, address: int) -> Optional[Region]:
        """Return the region containing ``address``, or None."""
        hit = self._hit
        if hit is not None and hit.start <= address < hit.start + len(hit.data):
            return hit
        index = bisect_right(self._starts, address) - 1
        if index >= 0:
            region = self._regions[index]
            if address < region.start + len(region.data):
                self._hit = region
                return region
        return None

    def _region_for(self, address: int, size: int) -> Region:
        region = self.region_at(address)
        if region is None or address + size > region.start + len(region.data):
            raise MemoryError_(f"unmapped access at {address:#x} size {size}")
        return region

    def read(self, address: int, size: int) -> bytes:
        """Read ``size`` raw bytes."""
        region = self._region_for(address, size)
        offset = address - region.start
        return bytes(region.data[offset:offset + size])

    def write(self, address: int, data: bytes) -> None:
        """Write raw bytes.

        Raises:
            MemoryError_: on unmapped or read-only destinations.
        """
        region = self._region_for(address, len(data))
        if not region.writable:
            raise MemoryError_(f"write to read-only region {region.name!r} at {address:#x}")
        if region.shared:
            region.detach()
        offset = address - region.start
        region.data[offset:offset + len(data)] = data
        region.generation += 1

    def read_int(self, address: int, size: int = 8, signed: bool = False) -> int:
        """Read a little-endian integer of ``size`` bytes."""
        region = self._hit
        if region is not None:
            offset = address - region.start
            data = region.data
            if 0 <= offset <= len(data) - size:
                return int.from_bytes(data[offset:offset + size], "little",
                                      signed=signed)
        region = self._region_for(address, size)
        offset = address - region.start
        return int.from_bytes(region.data[offset:offset + size], "little", signed=signed)

    def write_int(self, address: int, value: int, size: int = 8) -> None:
        """Write a little-endian integer of ``size`` bytes (two's complement)."""
        region = self._hit
        if region is not None and region.writable and not region.shared:
            offset = address - region.start
            data = region.data
            if 0 <= offset <= len(data) - size:
                data[offset:offset + size] = \
                    (value & _INT_MASKS[size]).to_bytes(size, "little")
                region.generation += 1
                return
        region = self._region_for(address, size)
        if not region.writable:
            raise MemoryError_(f"write to read-only region {region.name!r} at {address:#x}")
        if region.shared:
            region.detach()
        offset = address - region.start
        region.data[offset:offset + size] = \
            (value & _INT_MASKS[size]).to_bytes(size, "little")
        region.generation += 1

    def read_qword(self, address: int) -> int:
        """Read a little-endian 64-bit unsigned integer.

        The width-specialized sibling of :meth:`read_int`: no size/signed
        parameters and no mask-table probe, so it is the cheapest mapped
        load the memory offers.  Stable low-level accessor the exec-compiled
        trace tier (:mod:`repro.cpu.codegen`) binds for stack traffic.
        """
        region = self._hit
        if region is not None:
            offset = address - region.start
            data = region.data
            if 0 <= offset <= len(data) - 8:
                return int.from_bytes(data[offset:offset + 8], "little")
        region = self._region_for(address, 8)
        offset = address - region.start
        return int.from_bytes(region.data[offset:offset + 8], "little")

    def write_qword(self, address: int, value: int) -> None:
        """Write a little-endian 64-bit integer (two's complement).

        Width-specialized sibling of :meth:`write_int`; identical fault and
        generation semantics.
        """
        region = self._hit
        if region is not None and region.writable and not region.shared:
            offset = address - region.start
            data = region.data
            if 0 <= offset <= len(data) - 8:
                data[offset:offset + 8] = \
                    (value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
                region.generation += 1
                return
        self.write_int(address, value, 8)

    def peek_int(self, address: int, size: int = 8) -> Optional[int]:
        """Read a little-endian integer if mapped, else None — never faults.

        Speculative consumers (the emulator's trace builder peeking upcoming
        ret targets off the stack) use this so a probe beyond a region edge
        is an answer, not an emulation fault.
        """
        region = self.region_at(address)
        if region is None:
            return None
        offset = address - region.start
        data = region.data
        if offset + size > len(data):
            return None
        return int.from_bytes(data[offset:offset + size], "little")

    def read_cstring(self, address: int, limit: int = 4096) -> bytes:
        """Read a NUL-terminated byte string (without the terminator)."""
        region = self._region_for(address, 1)
        offset = address - region.start
        window_end = min(offset + limit, len(region.data))
        terminator = region.data.find(b"\0", offset, window_end)
        if terminator >= 0:
            return bytes(region.data[offset:terminator])
        if window_end - offset >= limit:
            # limit exhausted inside the region: return the unterminated window
            return bytes(region.data[offset:window_end])
        # string runs off the end of the region before hitting a terminator
        raise MemoryError_(f"unmapped access at {region.start + len(region.data):#x} size 1")

    def snapshot(self) -> "Memory":
        """Return a copy-on-write fork of the memory.

        Both the parent and the fork keep using the shared backing storage
        until either side writes into a region, at which point that side
        privatizes its copy.  Used by the attack engines to fork per
        execution at near-zero cost.
        """
        clone = Memory()
        for region in self._regions:
            region.shared = True
            clone._regions.append(
                Region(region.name, region.start, region.data, region.writable,
                       shared=True, generation=region.generation)
            )
        clone._starts = list(self._starts)
        return clone

    def restore_from(self, frozen: "Memory") -> bool:
        """Rewind this memory's region contents to ``frozen``, in place.

        Returns False (having changed nothing) when the region layout
        diverged, in which case the caller must fall back to replacing the
        memory with ``frozen.snapshot()``.  A region whose backing is still
        shared with ``frozen`` was never written by either side, so its
        contents — and every consumer view keyed on its generation (the
        emulator's decode/trace caches) — are still exact and it is left
        untouched.  A diverged region re-shares the frozen backing
        copy-on-write and bumps its generation so stale cached views
        invalidate.
        """
        live_regions = self._regions
        saved_regions = frozen._regions
        if len(live_regions) != len(saved_regions):
            return False
        for live, saved in zip(live_regions, saved_regions):
            if live.start != saved.start or len(live.data) != len(saved.data):
                return False
        for live, saved in zip(live_regions, saved_regions):
            if live.data is saved.data:
                continue  # untouched since the snapshot
            live.data = saved.data
            live.shared = True
            saved.shared = True
            # generations are monotonic: never reuse a value an older content
            # revision was cached under, or stale views would revalidate
            live.generation += 1
        return True
