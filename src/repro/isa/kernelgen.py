"""Per-trace straightline decode kernels (the array engine's codegen).

:mod:`repro.isa.compiled` lowers a repetition trace to flat parallel
arrays; this module goes one step further and *compiles the trace to
Python*.  The observation that makes it exact: with
``branch_ends_group=True`` (the POWER5 default) a decode group's
extent is a **static function of its start position** --

- the group width is fixed by the arbiter mode,
- the long-dependency break rule tests ``prev_long[pos] >= start``,
  which depends only on positions (see :mod:`repro.isa.compiled`),
- a branch ends the group whether or not it was predicted correctly,
  so the dynamic mispredict path ends the group at the same position
  as the static rule.

Decode therefore always begins at one of a statically known chain of
group-start positions (entry 0, each group's end, flush rewinds to a
previous group start), and for each start the exact sequence of
scoreboard reads, functional-unit claims, latencies and counter
increments is known at compile time.  ``generate_factory_source``
yields one tiny function per group start with every register index,
latency, occupancy cap, branch-predictor key and instruction count
baked in as literals, and dependencies *within* a group forwarded
through locals.  A group kernel does the work the engine's inner
decode loop would do for that group -- about three interpreter
bytecodes per simulated machine slot -- and returns
``(next_pos, count, group_comp, op_wait, fu_wait, mispredict_comp,
rep_done)`` for the engine's dispatch tail.

Shared mutable state (the thread scoreboard, the unit-pool occupancy
maps, the branch predictor, the memory hierarchy's load and store
entry points, the D-TLB and L1D set dicts, their per-thread hit
counters and the hierarchy's L1-load and store counters) is bound once
per (thread, trace) pair through default arguments -- ``LOAD_FAST`` at
run time, no cell indirection, nothing passed per call beyond
``(now, tid)``.

Loads and stores resolve D-TLB + L1D hits inline: set indices and
tags derive from the group's address with baked divisors, and the
membership test changes nothing.  A hit in both makes the hierarchy's
writes (issue-cycle stamps, per-thread hit counters, the L1-load or
store counter) and completes at the baked latency; anything else calls
the hierarchy, which redoes both lookups, so everything below the L1D
sees the reference sequence of misses.  Rewriting an existing dict key
keeps its order, so LRU victim tie-breaks match.

Groups containing a ``PRIO_NOP`` are left to the engine's reference
decode path (they mutate the arbiter, which a kernel must not), as
are traces that are not kernelizable at all (``branch_ends_group``
off, or an empty trace).  Trace length is not capped: only the
*distinct* group bodies are compiled (the 2,814 groups of the FFT
producer share 16), each as its own small module, and the per-group
instantiations come from a data table, not from source lines.
"""

from __future__ import annotations

from types import FunctionType
from typing import NamedTuple

from repro.isa.compiled import READ_SENTINEL, WRITE_SINK, CompiledTrace
from repro.isa.instruction import OpClass

# The emitter bakes integer op codes as literals; pin the encoding.
assert (int(OpClass.FX), int(OpClass.FX_MUL), int(OpClass.FP),
        int(OpClass.LOAD), int(OpClass.STORE), int(OpClass.BRANCH),
        int(OpClass.NOP), int(OpClass.PRIO_NOP)) == (0, 1, 2, 3, 4, 5, 6, 7)

_OP_FX, _OP_MUL, _OP_FP = 0, 1, 2
_OP_LOAD, _OP_STORE, _OP_BR, _OP_NOP, _OP_PRIO = 3, 4, 5, 6, 7


class KernelConsts(NamedTuple):
    """Configuration constants baked into generated kernels.

    Part of the process-wide factory cache key: two configurations
    share compiled kernels exactly when all of these agree.
    """

    width: int
    break_long: bool
    branch_ends: bool
    decode_to_issue: int
    fx_latency: int
    fx_mul_latency: int
    fp_latency: int
    branch_latency: int
    fxu_cap: int
    lsu_cap: int
    fpu_cap: int
    bxu_cap: int
    tlb_page: int
    tlb_sets: int
    l1_line: int
    l1_sets: int
    l1_latency: int
    store_latency: int


#: Per-op (pool prefix, cap field, latency field); None entries are
#: resolved specially (loads/stores complete at the baked L1/store
#: latency on a TLB+L1D hit and through the hierarchy otherwise, nops
#: complete at operand readiness).
_POOL = {
    _OP_FX: ("fx", "fxu_cap", "fx_latency"),
    _OP_MUL: ("fx", "fxu_cap", "fx_mul_latency"),
    _OP_FP: ("fp", "fpu_cap", "fp_latency"),
    _OP_LOAD: ("ls", "lsu_cap", None),
    _OP_STORE: ("ls", "lsu_cap", None),
    _OP_BR: ("bx", "bxu_cap", "branch_latency"),
}

#: Pool prefix -> (factory local for the pool object, occupancy map,
#: bound ``dict.get``, thread_issues list, wait accumulator).
_POOL_NAMES = {
    "fx": ("fxu", "fxo", "fxg", "fxti", "fxw"),
    "ls": ("lsu", "lso", "lsg", "lsti", "lsw"),
    "fp": ("fpu", "fpo", "fpg", "fpti", "fpw"),
    "bx": ("bxu", "bxo", "bxg", "bxti", "bxw"),
}


def partition_groups(compiled: CompiledTrace,
                     consts: KernelConsts) -> dict[int, tuple[int, bool]]:
    """Map every reachable group start to ``(end, has_prio)``.

    Decode starts at position 0 and every subsequent start is the
    previous group's end; flush rewinds target starts already in the
    chain.  Requires ``consts.branch_ends`` (otherwise extents depend
    on branch predictions and are not static).
    """
    if not consts.branch_ends:
        raise ValueError("group extents are dynamic without "
                         "branch_ends_group")
    ops = compiled.op
    prev_long = compiled.prev_long
    n = len(ops)
    width = consts.width
    break_long = consts.break_long
    groups: dict[int, tuple[int, bool]] = {}
    start = 0
    while start < n and start not in groups:
        pos = start
        count = 0
        has_prio = False
        while count < width and pos < n:
            if count and break_long and prev_long[pos] >= start:
                break
            op = ops[pos]
            if op == _OP_PRIO:
                has_prio = True
            pos += 1
            count += 1
            if op == _OP_BR:
                break
        groups[start] = (pos, has_prio)
        start = pos
    return groups


def _group_values(compiled: CompiledTrace, g0: int, end: int) -> tuple:
    """The values of the group ``[g0, end)`` for its leading parameters.

    In the order :func:`_emit_group` declares them: ``NXT``, ``RD``,
    then ``KEY`` and ``TK`` for a group ending in a branch, then one
    ``A{i}`` address per load or store.
    """
    ops = compiled.op
    values: list = [end, end >= len(ops)]
    if ops[end - 1] == _OP_BR:
        # (pos << 1) | tid with pos already past the branch.
        values += [end << 1, compiled.aux[end - 1] == 1]
    addrs = compiled.addr
    values += [addrs[p] for p in range(g0, end)
               if ops[p] == _OP_LOAD or ops[p] == _OP_STORE]
    return tuple(values)


def _emit_group(compiled: CompiledTrace, g0: int, end: int,
                consts: KernelConsts) -> str:
    """Emit the kernel body for the group ``[g0, end)``.

    The function source lifts the *group-varying* quantities -- next
    position, repetition-done flag, memory addresses, branch key and
    outcome -- into leading parameters (``NXT``, ``RD``, ``A{i}``,
    ``KEY``, ``TK``; :func:`_group_values` gives a group's values for
    them), so the body is a function of the group's ``op``, ``dst``,
    ``s1`` and ``s2`` alone.  Loop-structured traces then produce the
    same body for every iteration of a loop, so one compiled code
    object (the expensive part) serves all of them; per-group
    functions are instantiated over it by rebinding the parameter
    defaults (see :func:`compile_factory`).
    """
    ops, dsts = compiled.op, compiled.dst
    s1s, s2s = compiled.s1, compiled.s2
    idx = range(g0, end)

    # Group-varying parameters (placeholder defaults are rebound per
    # instantiation; RD is genuinely boolean-varying, so the values
    # tuple, not the body, carries it).
    params = ["NXT=0", "RD=False"]

    # Pools and externals this group touches.
    pools: dict[str, int] = {}
    for p in idx:
        info = _POOL.get(ops[p])
        if info is not None:
            pools[info[0]] = pools.get(info[0], 0) + 1
    binds = ["rr"]
    for pool in pools:
        obj, occ, get, ti, _w = _POOL_NAMES[pool]
        binds += [get, occ, obj, ti]
    if any(ops[p] == _OP_LOAD or ops[p] == _OP_STORE for p in idx):
        binds += ["tlbs", "l1s", "tth", "l1h"]
    if any(ops[p] == _OP_LOAD for p in idx):
        binds += ["hl", "l1c"]
    if any(ops[p] == _OP_STORE for p in idx):
        binds += ["hs", "stc"]
    if ops[end - 1] == _OP_BR:
        binds.append("predict")
        params += ["KEY=0", "TK=False"]

    out: list[str] = []
    w = out.append
    w(f"    base = now + {consts.decode_to_issue}")

    ow_used = any(s1s[p] != READ_SENTINEL or s2s[p] != READ_SENTINEL
                  for p in idx)
    fu_used = bool(pools)
    if ow_used:
        w("    ow = 0")
    if fu_used:
        w("    fw = 0")
    for pool, uses in pools.items():
        if uses:
            w(f"    {_POOL_NAMES[pool][4]} = 0")

    # Last writer per register: only its scoreboard store survives
    # (intermediate values are forwarded through locals).  Branches
    # never write the scoreboard -- the reference decode loop's branch
    # path breaks out before the generic destination store.
    last_writer: dict[int, int] = {}
    for p in idx:
        if ops[p] != _OP_BR and dsts[p] != WRITE_SINK:
            last_writer[dsts[p]] = p
    fwd: dict[int, str] = {}
    comp_names: list[str] = []

    for p in idx:
        i = p - g0
        op = ops[p]
        # -- operand readiness -------------------------------------
        terms = []
        any_fwd = False
        for s in (s1s[p], s2s[p]):
            if s == READ_SENTINEL:
                continue
            if s in fwd:
                terms.append(fwd[s])
                any_fwd = True
            else:
                terms.append(f"rr[{s}]")
        if not terms:
            e = "base"
        else:
            e = f"e{i}"
            w(f"    {e} = {terms[0]}")
            for t in terms[1:]:
                w(f"    t = {t}")
                w(f"    if t > {e}: {e} = t")
            if not any_fwd:
                # Forwarded completions are provably >= base; raw
                # scoreboard reads are not.
                w(f"    if {e} < base: {e} = base")
            w(f"    ow += {e} - base")

        # -- functional-unit claim + completion --------------------
        c = f"c{i}"
        info = _POOL.get(op)
        if info is None:  # NOP (PRIO groups never reach the emitter)
            if e == "base":
                c = "base"
            else:
                w(f"    {c} = {e}")
        else:
            pool, cap_field, lat_field = info
            _obj, occ, get, _ti, pw = _POOL_NAMES[pool]
            cap = getattr(consts, cap_field)
            s = f"s{i}"
            w(f"    {s} = {e}")
            w(f"    v = {get}({s}, 0)")
            w(f"    while v >= {cap}:")
            w(f"        {s} += 1")
            w(f"        v = {get}({s}, 0)")
            w(f"    {occ}[{s}] = v + 1")
            if e != "base":
                w(f"    if {s} > {e}:")
                w(f"        t = {s} - {e}")
            else:
                w(f"    if {s} > base:")
                w(f"        t = {s} - base")
            w("        fw += t")
            w(f"        {pw} += t")
            if op == _OP_LOAD or op == _OP_STORE:
                # Inline hit path (see the module docstring).
                params.append(f"A{i}=0")
                w(f"    pg = A{i} // {consts.tlb_page}")
                w(f"    ts = tlbs[pg % {consts.tlb_sets}]")
                w(f"    pg //= {consts.tlb_sets}")
                w(f"    ln = A{i} // {consts.l1_line}")
                w(f"    cs = l1s[ln % {consts.l1_sets}]")
                w(f"    ln //= {consts.l1_sets}")
                w("    if pg in ts and ln in cs:")
                w(f"        ts[pg] = cs[ln] = {s}")
                w("        tth[tid] += 1")
                w("        l1h[tid] += 1")
                if op == _OP_LOAD:
                    w("        l1c[tid] += 1")
                    w(f"        {c} = {s} + {consts.l1_latency}")
                    w("    else:")
                    w(f"        {c} = hl(A{i}, {s}, tid, now)")
                else:
                    w("        stc[tid] += 1")
                    w(f"        {c} = {s} + {consts.store_latency}")
                    w("    else:")
                    w(f"        {c} = hs(A{i}, {s}, tid)")
            else:
                w(f"    {c} = {s} + {getattr(consts, lat_field)}")

        if op != _OP_BR and dsts[p] != WRITE_SINK:
            fwd[dsts[p]] = c
            if last_writer[dsts[p]] == p:
                w(f"    rr[{dsts[p]}] = {c}")
        comp_names.append(c)

    # -- group completion --------------------------------------------
    if len(comp_names) == 1:
        g = comp_names[0]
    else:
        g = "g"
        w(f"    g = {comp_names[0]}")
        for c in comp_names[1:]:
            w(f"    if {c} > g: g = {c}")

    # -- per-pool counter folds ---------------------------------------
    for pool, uses in pools.items():
        obj, _occ, _get, ti, pw = _POOL_NAMES[pool]
        w(f"    {obj}.issues += {uses}")
        w(f"    {ti}[tid] += {uses}")
        w(f"    if {pw}:")
        w(f"        {obj}.total_wait += {pw}")

    # -- return --------------------------------------------------------
    count = end - g0
    ow = "ow" if ow_used else "0"
    fu = "fw" if fu_used else "0"
    if ops[end - 1] == _OP_BR:
        cb = comp_names[-1]
        w("    if predict(KEY | tid, TK, tid):")
        w(f"        return NXT, {count}, {g}, {ow}, {fu}, -1, RD")
        w(f"    return NXT, {count}, {g}, {ow}, {fu}, {cb}, RD")
    else:
        w(f"    return NXT, {count}, {g}, {ow}, {fu}, -1, RD")

    sig = ", ".join(params + [f"{b}=None" for b in binds])
    return f"def kernel(now, tid, {sig}):\n" + "\n".join(out) + "\n"


def generate_factory_source(compiled: CompiledTrace, consts: KernelConsts
                            ) -> tuple[tuple[str, ...], tuple, int] | None:
    """Sources of the distinct group bodies of ``compiled``, plus the
    group table.

    Returns ``(bodies, groups, n)``, or None when the trace is not
    kernelizable under ``consts`` (group extents dynamic, or an empty
    trace); callers then fall back to the reference decode path.  Each
    body is a stand-alone ``def kernel(...)`` module; ``groups`` holds
    one ``(start, body_index, values)`` row per kernelized group start
    of the ``n``-instruction trace (see :func:`compile_factory`).
    """
    n = len(compiled.op)
    if not consts.branch_ends or consts.width < 1 or n == 0:
        return None
    # Loop-structured traces repeat group bodies across iterations:
    # each distinct body is compiled once.  A body is a function of
    # the group's op/dst/s1/s2 columns, so text is emitted only for a
    # column signature not seen before.
    ops, dsts, s1s, s2s = compiled.op, compiled.dst, compiled.s1, compiled.s2
    bodies: dict[str, int] = {}
    by_shape: dict[tuple, int] = {}
    groups = []
    for g0, (end, has_prio) in partition_groups(compiled, consts).items():
        if has_prio:
            continue  # reference path: may rebuild the arbiter
        shape = (tuple(ops[g0:end]), tuple(dsts[g0:end]),
                 tuple(s1s[g0:end]), tuple(s2s[g0:end]))
        b = by_shape.get(shape)
        if b is None:
            body = _emit_group(compiled, g0, end, consts)
            b = by_shape[shape] = bodies.setdefault(body, len(bodies))
        groups.append((g0, b, _group_values(compiled, g0, end)))
    return tuple(bodies), tuple(groups), n


def _bind_env(th, fxu, lsu, fpu, bxu, hl, hs, predict, tlbs, l1s, tth,
              l1h, l1c, stc) -> dict:
    """Bind name -> object for the state kernels take as defaults."""
    env = {"rr": th.reg_ready, "hl": hl, "hs": hs, "predict": predict,
           "tlbs": tlbs, "l1s": l1s, "tth": tth, "l1h": l1h, "l1c": l1c,
           "stc": stc}
    for pool, (obj, occ, get, ti, _w) in zip((fxu, lsu, fpu, bxu),
                                             _POOL_NAMES.values()):
        env.update({obj: pool, occ: pool._occupied,
                    get: pool._occupied.get, ti: pool.thread_issues})
    return env


def compile_factory(bodies: tuple[str, ...], groups: tuple, n: int,
                    name: str = "<trace-kernels>"):
    """Compile generated group bodies into a kernel factory.

    Each body is compiled on its own, so the compiler's peak memory is
    that of one body, not of the whole trace.  The factory takes the
    :func:`_bind_env` arguments and instantiates one function per
    ``groups`` row over its body's code object, with the group's
    values and the bound state as defaults; it returns the
    position-indexed kernel list (None at reference-decode starts).
    """
    protos = []
    for body in bodies:
        ns: dict = {}
        exec(compile(body, name, "exec"), ns)  # noqa: S102 (own codegen)
        protos.append(ns["kernel"])

    def make_kernels(*binds):
        env = _bind_env(*binds)
        bound: dict[int, tuple] = {}
        kernels: list = [None] * n
        for g0, b, pre in groups:
            f = protos[b]
            code = f.__code__
            state = bound.get(b)
            if state is None:
                state = bound[b] = tuple(
                    env[v] for v in
                    code.co_varnames[2 + len(pre):code.co_argcount])
            kernels[g0] = FunctionType(code, f.__globals__, f.__name__,
                                       pre + state, None)
        return kernels
    return make_kernels
