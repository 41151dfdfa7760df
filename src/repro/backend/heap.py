"""Fixed glibc heap thresholds for the engines' per-step scratch.

A whole-array step allocates its temporaries fresh each step; on the
paper's dense 480x480 ACO grid they reach ~2-3 MB each and ~7 MB
together. By default glibc moves its mmap threshold up to the largest
block freed so far and trims the top of the heap whenever more than
twice that is free. A dense step's freed scratch lands right at that
trim line, so whether every step hands its scratch back to the OS and
faults it in again (~1,800 minor faults, a few ms a step) depends on
where the engine's own arrays happen to sit in the heap. Fixing both
thresholds at the ceiling the dynamic rule can reach (32 MiB mmap,
64 MiB trim) makes reuse of the scratch the rule instead of luck.

The setting is process-wide and made once, by the first engine built,
so every process that builds one inherits it for the rest of its life:
``repro run``, ``repro serve``, pool workers, and any program that
builds an engine through the library. In such a process, blocks up to
32 MiB come from the heap, and each malloc arena may keep up to 64 MiB
free at its top instead of returning it. glibc's own rule reaches the
same values once any 32 MiB block has been freed, so this fixes the
state a long-running process can drift into anyway. It is a no-op off
glibc.
"""

from __future__ import annotations

import ctypes
import platform

__all__ = ["MMAP_THRESHOLD", "TRIM_THRESHOLD", "pin_heap_thresholds"]

#: Blocks below this size come from the heap, not a fresh mapping
#: (glibc's ``DEFAULT_MMAP_THRESHOLD_MAX`` on 64-bit).
MMAP_THRESHOLD = 32 << 20
#: Free space the heap keeps at its top before returning it to the OS
#: (what the dynamic rule sets beside the mmap threshold above).
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD

# mallopt parameter numbers from glibc's <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

_pinned = None


def pin_heap_thresholds() -> bool:
    """Set both thresholds once per process; whether they are set.

    Setting either one turns glibc's dynamic adjustment off, so both are
    set together.
    """
    global _pinned
    if _pinned is None:
        _pinned = False
        if platform.system() == "Linux" and platform.libc_ver()[0] == "glibc":
            mallopt = ctypes.CDLL(None).mallopt
            _pinned = bool(mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)) and bool(
                mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
            )
    return _pinned
