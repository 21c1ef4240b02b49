"""Host runtime functions available to emulated programs.

Compiled workloads call a small libc-like runtime (allocation, character
output, coverage probes).  These functions live at reserved addresses in the
``HOST_FUNCTION_BASE`` range and are executed natively by the emulator — they
play the role of the non-ROP library functions the paper's chains must
inter-operate with (Figure 4): a ROP function calling ``malloc`` exercises the
full stack-switching call protocol.
"""

from __future__ import annotations

from typing import Dict, List

from repro.binary.sections import HEAP_BASE, HEAP_SIZE, HOST_FUNCTION_BASE
from repro.isa.registers import ARG_REGISTERS

#: Sentinel return address used by :func:`repro.cpu.emulator.call_function`.
#: When control returns here the emulation of the call is complete.
EXIT_ADDRESS = HOST_FUNCTION_BASE + 0xF000

#: Spacing between host function slots; any address in a slot resolves to it.
_SLOT_SIZE = 0x10

#: Stable name -> slot index assignment for host functions.
HOST_FUNCTION_NAMES = (
    "malloc",
    "free",
    "putchar",
    "print_int",
    "puts",
    "memcpy",
    "memset",
    "strlen",
    "abort",
    "__probe",
    "__output",
)


def host_function_address(name: str) -> int:
    """Return the reserved address of host function ``name``."""
    try:
        index = HOST_FUNCTION_NAMES.index(name)
    except ValueError:
        raise KeyError(f"unknown host function {name!r}") from None
    return HOST_FUNCTION_BASE + index * _SLOT_SIZE


def is_host_address(address: int) -> bool:
    """True if ``address`` falls in the host function range."""
    return (HOST_FUNCTION_BASE <= address < HOST_FUNCTION_BASE
            + len(HOST_FUNCTION_NAMES) * _SLOT_SIZE) or address == EXIT_ADDRESS


class HostEnvironment:
    """State backing the host runtime: heap allocator, output, probes.

    Attributes:
        output: bytes written through ``putchar``/``puts``.
        int_output: values passed to ``print_int`` / ``__output``.
        probes: coverage probe identifiers hit through ``__probe`` (ordered).
        aborted: set when the program called ``abort``.
    """

    def __init__(self) -> None:
        self.heap_cursor = HEAP_BASE
        self.heap_limit = HEAP_BASE + HEAP_SIZE
        self.allocations: Dict[int, int] = {}
        self.output = bytearray()
        self.int_output: List[int] = []
        self.probes: List[int] = []
        self.aborted = False

    # -- individual host functions -------------------------------------
    def _malloc(self, emulator) -> int:
        size = emulator.state.read_reg(ARG_REGISTERS[0])
        size = max(8, (size + 7) & ~7)
        if self.heap_cursor + size > self.heap_limit:
            return 0
        address = self.heap_cursor
        self.heap_cursor += size
        self.allocations[address] = size
        return address

    def _free(self, emulator) -> int:
        address = emulator.state.read_reg(ARG_REGISTERS[0])
        self.allocations.pop(address, None)
        return 0

    def _putchar(self, emulator) -> int:
        value = emulator.state.read_reg(ARG_REGISTERS[0], 1)
        self.output.append(value)
        return value

    def _print_int(self, emulator) -> int:
        value = emulator.state.read_reg(ARG_REGISTERS[0])
        self.int_output.append(value)
        self.output += str(value).encode() + b"\n"
        return 0

    def _puts(self, emulator) -> int:
        address = emulator.state.read_reg(ARG_REGISTERS[0])
        self.output += emulator.memory.read_cstring(address) + b"\n"
        return 0

    def _memcpy(self, emulator) -> int:
        dst = emulator.state.read_reg(ARG_REGISTERS[0])
        src = emulator.state.read_reg(ARG_REGISTERS[1])
        count = emulator.state.read_reg(ARG_REGISTERS[2])
        emulator.memory.write(dst, emulator.memory.read(src, count))
        return dst

    def _memset(self, emulator) -> int:
        dst = emulator.state.read_reg(ARG_REGISTERS[0])
        value = emulator.state.read_reg(ARG_REGISTERS[1], 1)
        count = emulator.state.read_reg(ARG_REGISTERS[2])
        emulator.memory.write(dst, bytes([value]) * count)
        return dst

    def _strlen(self, emulator) -> int:
        address = emulator.state.read_reg(ARG_REGISTERS[0])
        return len(emulator.memory.read_cstring(address))

    def _abort(self, emulator) -> int:
        self.aborted = True
        emulator.halted = True
        return 0

    def _probe(self, emulator) -> int:
        probe_id = emulator.state.read_reg(ARG_REGISTERS[0])
        self.probes.append(probe_id)
        return 0

    def _output(self, emulator) -> int:
        value = emulator.state.read_reg(ARG_REGISTERS[0])
        self.int_output.append(value)
        return 0

    #: address -> handler method name, shared by every instance.  The
    #: emulator resolves the name against the *current* host per call, so
    #: swapping hosts on a snapshot restore costs nothing and subclass
    #: overrides keep working.
    DISPATCH: Dict[int, str] = {}

    def fork(self) -> "HostEnvironment":
        """Return an independent copy of the host state.

        Everything the host tracks (allocator cursor, allocation table,
        output buffers, probe log) is small and flat, so forking is a few
        shallow copies — the host half of the O(1) emulator snapshots.
        """
        clone = HostEnvironment()
        clone.heap_cursor = self.heap_cursor
        clone.heap_limit = self.heap_limit
        clone.allocations = dict(self.allocations)
        clone.output = bytearray(self.output)
        clone.int_output = list(self.int_output)
        clone.probes = list(self.probes)
        clone.aborted = self.aborted
        return clone


HostEnvironment.DISPATCH = {
    host_function_address(name): method
    for name, method in (
        ("malloc", "_malloc"),
        ("free", "_free"),
        ("putchar", "_putchar"),
        ("print_int", "_print_int"),
        ("puts", "_puts"),
        ("memcpy", "_memcpy"),
        ("memset", "_memset"),
        ("strlen", "_strlen"),
        ("abort", "_abort"),
        ("__probe", "_probe"),
        ("__output", "_output"),
    )
}
