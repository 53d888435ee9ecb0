"""Memory sections: the granule of Linux memory hotplug.

"A feature enabling memory resizing at OS level is called memory hotplug.
As the name implies, the kernel attaches new physical page frames, by
expanding the page table pool at runtime, after the physical attachment
process of remote memory is completed.  We have implemented the memory
hotplug linux kernel support for arm64" (§IV.A, ref [12]).

Linux manages hotpluggable memory in fixed-size *sections* (SPARSEMEM).
A section is either ABSENT (no backing), PRESENT (registered, struct
pages allocated, not yet usable) or ONLINE (given to the buddy
allocator); :class:`~repro.software.hotplug.MemoryHotplug` moves every
section of an attached window together.  The granule is
architecture-dependent — 128 MiB is the common x86-64 figure and the
configurable default here; the arm64 port of the era used larger 1 GiB
sections, which the hotplug ablation bench sweeps.
"""

from __future__ import annotations

import enum

from repro.units import mib

#: Default hotplug section size (SPARSEMEM section), bytes.
DEFAULT_SECTION_BYTES = mib(128)


class SectionState(enum.Enum):
    """SPARSEMEM section life cycle."""

    ABSENT = "absent"
    PRESENT = "present"
    ONLINE = "online"
