"""The ``or X,X,X`` priority-setting nops of POWER5 (paper Table 1).

POWER5 lets software request a thread priority by issuing an ``or``
instruction whose three operands name the same special register number.
The operation performs no architectural work; the decode logic pattern
matches the register number and, when the running context has sufficient
privilege, changes the thread's priority.  On insufficient privilege (or
on pre-POWER5 parts) the instruction is *silently* treated as a plain
nop -- that silent downgrade is part of the contract and is reproduced
by :class:`repro.priority.interface.PriorityInterface`.

Table 1 of the paper:

====  =============== ==================== ============
Prio  Level           Privilege required   or-nop form
====  =============== ==================== ============
0     Thread shut off Hypervisor           (hcall only)
1     Very low        Supervisor           or 31,31,31
2     Low             User/Supervisor      or 1,1,1
3     Medium-Low      User/Supervisor      or 6,6,6
4     Medium          User/Supervisor      or 2,2,2
5     Medium-high     Supervisor           or 5,5,5
6     High            Supervisor           or 3,3,3
7     Very high       Hypervisor           or 7,7,7
====  =============== ==================== ============
"""

from __future__ import annotations

from repro.isa.instruction import Instruction, OpClass

#: Priority level -> register number of the ``or X,X,X`` encoding.
#: Priority 0 has no or-nop form: shutting a thread off requires a
#: hypervisor call (see :meth:`repro.syskernel.PatchedKernel.set_priority`).
PRIORITY_TO_OR_REGISTER: dict[int, int] = {
    1: 31,
    2: 1,
    3: 6,
    4: 2,
    5: 5,
    6: 3,
    7: 7,
}

#: Register number of the ``or X,X,X`` encoding -> priority level.
OR_REGISTER_TO_PRIORITY: dict[int, int] = {
    reg: prio for prio, reg in PRIORITY_TO_OR_REGISTER.items()
}


class PriorityEncodingError(ValueError):
    """Raised for priority levels or registers with no or-nop encoding."""


def encode_priority_nop(priority: int) -> Instruction:
    """Return the ``or X,X,X`` instruction requesting ``priority``.

    Raises :class:`PriorityEncodingError` for levels without an or-nop
    form (priority 0, or out-of-range values).
    """
    try:
        reg = PRIORITY_TO_OR_REGISTER[priority]
    except KeyError:
        raise PriorityEncodingError(
            f"priority {priority} has no 'or X,X,X' encoding "
            f"(valid: {sorted(PRIORITY_TO_OR_REGISTER)})"
        ) from None
    return Instruction(OpClass.PRIO_NOP, reg, reg, reg, aux=reg)


def decode_priority_nop(instr: Instruction) -> int:
    """Return the priority level requested by a ``PRIO_NOP`` instruction.

    Raises :class:`PriorityEncodingError` when ``instr`` is not a
    priority nop or uses an unrecognised register number (real hardware
    would treat such an ``or`` as an ordinary instruction).
    """
    if instr.op is not OpClass.PRIO_NOP:
        raise PriorityEncodingError(f"not a priority nop: {instr!r}")
    try:
        return OR_REGISTER_TO_PRIORITY[instr.aux]
    except KeyError:
        raise PriorityEncodingError(
            f"register {instr.aux} is not a priority-nop encoding"
        ) from None


def is_priority_nop(instr: Instruction) -> bool:
    """True when ``instr`` is a recognised ``or X,X,X`` priority form."""
    return (instr.op is OpClass.PRIO_NOP
            and instr.aux in OR_REGISTER_TO_PRIORITY)
