"""Simulated storage substrate: SSD device model, RAID-0, AIO, tile store.

The paper's evaluation machine has eight SATA SSDs behind an HBA in software
RAID-0, driven through Linux AIO with O_DIRECT.  Here the *time* of every
read is simulated by a discrete device model while the *bytes* are real
(tile payloads live in actual files).  See DESIGN.md for why the
substitution preserves the evaluation's behaviour.
"""

from repro.storage.aio import AIOContext, Extents, IOMode, IORequest
from repro.storage.device import DeviceProfile, SimulatedSSD
from repro.storage.file import TileStore
from repro.storage.raid import Raid0Array

__all__ = [
    "DeviceProfile",
    "SimulatedSSD",
    "Raid0Array",
    "AIOContext",
    "Extents",
    "IOMode",
    "IORequest",
    "TileStore",
]
