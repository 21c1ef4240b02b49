"""Loader: map a :class:`BinaryImage` into memory ready for emulation."""

from __future__ import annotations

from dataclasses import dataclass

from repro.binary.image import BinaryImage
from repro.binary.sections import HEAP_BASE, HEAP_SIZE, STACK_SIZE, STACK_TOP
from repro.memory import Memory


@dataclass
class LoadedProgram:
    """A binary image mapped into memory together with runtime areas.

    Attributes:
        image: the source image (not copied; code patches show through).
        memory: the mapped memory.
        stack_top: initial stack pointer value.
        heap_base: start of the heap area used by the host allocator.
    """

    image: BinaryImage
    memory: Memory
    stack_top: int
    heap_base: int

    def fork(self) -> "LoadedProgram":
        """Return a copy-on-write fork of this program.

        The fork shares all region backing storage with this program until
        either side writes (see :meth:`repro.memory.Memory.snapshot`), so a
        fork costs O(regions) where re-running :func:`load_image` deep-copies
        the stack.
        """
        return LoadedProgram(image=self.image, memory=self.memory.snapshot(),
                             stack_top=self.stack_top, heap_base=self.heap_base)


def load_image(image: BinaryImage, extra_stack: int = 0) -> LoadedProgram:
    """Map ``image`` plus a stack and heap into a fresh :class:`Memory`.

    Args:
        image: the program to load.
        extra_stack: extra bytes of stack to map below the default area.

    Returns:
        a :class:`LoadedProgram` whose memory contains a copy of every
        section's bytes (so emulation never mutates the image itself).
    """
    memory = Memory()
    for section in image.sections.values():
        if section.size == 0:
            continue
        memory.map(section.name, section.address, section.size,
                   bytes(section.data), writable=True)
    stack_size = STACK_SIZE + extra_stack
    memory.map("[stack]", STACK_TOP - stack_size, stack_size)
    memory.map("[heap]", HEAP_BASE, HEAP_SIZE)
    # leave a small guard below the stack top for argument spill space
    stack_top = STACK_TOP - 0x100
    return LoadedProgram(image=image, memory=memory, stack_top=stack_top,
                         heap_base=HEAP_BASE)
