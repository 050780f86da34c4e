"""OS-layer models: stock kernel, the paper's patch, /sys."""

from repro.syskernel.chipkernel import ChipKernel
from repro.syskernel.kernel import StockLinuxKernel
from repro.syskernel.patched import PatchedKernel
from repro.syskernel.sysfs import SysFS, SysFSError

__all__ = [
    "ChipKernel",
    "StockLinuxKernel",
    "PatchedKernel",
    "SysFS",
    "SysFSError",
]
