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
through locals.  A unit claim whose operands are ready at issue
(earliest cycle ``base``) resumes where the pool's previous claim in
the group landed when that claim also probed from ``base``: every
cycle it stepped over was full and still is, since nothing frees
occupancy inside a kernel.  A group kernel does the work the engine's
inner decode loop would do for that group -- about three interpreter
bytecodes per simulated machine slot -- and returns
``(next_pos, count, group_comp, op_wait, fu_wait, mispredict_comp,
rep_done)`` for the engine's dispatch tail.

Shared mutable state (the thread scoreboard, the unit-pool occupancy
maps, the branch predictor, the memory hierarchy's load and store
entry points, the D-TLB and L1D set dicts each memory op touches,
their per-thread hit counters and the hierarchy's L1-load and store
counters) is bound once per (thread, trace) pair through default
arguments -- ``LOAD_FAST`` at run time, no cell indirection, nothing
passed per call beyond ``(now, tid)``.

Loads and stores resolve D-TLB + L1D hits inline.  Every address is a
constant of its group, so the group table holds each memory op's
D-TLB and L1D tags and set indices, and the factory binds the set
dicts themselves; the membership test changes nothing.  A hit in both
makes the hierarchy's writes (issue-cycle stamps, per-thread hit
counters, the L1-load or store counter) and completes at the baked
latency; in a group with several memory ops the hit counts gather in
locals and are added once at the group's end, since nothing below the
L1D reads them mid-kernel.  Anything else calls the hierarchy, which
redoes both lookups, so everything below the L1D sees the reference
sequence of misses.  Rewriting an existing dict key keeps its order,
so LRU victim tie-breaks match.

Groups containing a ``PRIO_NOP`` are left to the engine's reference
decode path (they mutate the arbiter, which a kernel must not), as
are traces that are not kernelizable at all (``branch_ends_group``
off, or an empty trace).  Trace length is not capped: only the
*distinct* group bodies are compiled (the 2,814 groups of the FFT
producer share 16), each as its own small module labelled
``<trace-kernel {index}:{op letters}>`` so that profilers attribute
time per body, and the per-group instantiations come from a data
table, not from source lines.
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
#: bound ``dict.get``, thread_issues list, wait accumulator, probed
#: occupancy local).
_POOL_NAMES = {
    "fx": ("fxu", "fxo", "fxg", "fxti", "fxw", "fxv"),
    "ls": ("lsu", "lso", "lsg", "lsti", "lsw", "lsv"),
    "fp": ("fpu", "fpo", "fpg", "fpti", "fpw", "fpv"),
    "bx": ("bxu", "bxo", "bxg", "bxti", "bxw", "bxv"),
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


def _group_values(compiled: CompiledTrace, g0: int, end: int,
                  consts: KernelConsts, tags: dict) -> tuple:
    """The values of the group ``[g0, end)`` for its leading parameters.

    In the order :func:`_emit_group` declares them: ``NXT``, ``RD``,
    then ``KEY`` and ``TK`` for a group ending in a branch, then the
    address ``A{i}``, D-TLB tag ``P{i}`` and L1D tag ``L{i}`` of each
    load or store, then each one's D-TLB and L1D set as an index into
    the D-TLB sets followed by the L1D sets, which
    :func:`compile_factory` swaps for the set itself.  Tags go through
    ``tags`` so equal tags share one int object across groups.
    """
    ops = compiled.op
    values: list = [end, end >= len(ops)]
    if ops[end - 1] == _OP_BR:
        # (pos << 1) | tid with pos already past the branch.
        values += [end << 1, compiled.aux[end - 1] == 1]
    addrs = compiled.addr
    sets: list = []
    for p in range(g0, end):
        if ops[p] == _OP_LOAD or ops[p] == _OP_STORE:
            a = addrs[p]
            page, pset = divmod(a // consts.tlb_page, consts.tlb_sets)
            line, lset = divmod(a // consts.l1_line, consts.l1_sets)
            values += [a, tags.setdefault(page, page),
                       tags.setdefault(line, line)]
            sets += [pset, consts.tlb_sets + lset]
    return tuple(values + sets)


def _emit_group(compiled: CompiledTrace, g0: int, end: int,
                consts: KernelConsts) -> str:
    """Emit the kernel body for the group ``[g0, end)``.

    The function source lifts the *group-varying* quantities -- next
    position, repetition-done flag, branch key and outcome, and each
    memory op's address, tags and sets -- into leading parameters
    (``NXT``, ``RD``, ``KEY``, ``TK``, ``A{i}``, ``P{i}``, ``L{i}``,
    ``T{i}``, ``C{i}``; :func:`_group_values` gives a group's values
    for them), so the body is a function of the group's ``op``,
    ``dst``, ``s1`` and ``s2`` alone.  Loop-structured traces then
    produce the same body for every iteration of a loop, so one
    compiled code object (the expensive part) serves all of them;
    per-group functions are instantiated over it by rebinding the
    parameter defaults (see :func:`compile_factory`).
    """
    ops, dsts = compiled.op, compiled.dst
    s1s, s2s = compiled.s1, compiled.s2
    idx = range(g0, end)

    # Group-varying parameters (placeholder defaults are rebound per
    # instantiation; RD is genuinely boolean-varying, so the values
    # tuple, not the body, carries it).  The memory ops' set
    # parameters come last, in the order _group_values gives them.
    params = ["NXT=0", "RD=False"]
    set_params: list[str] = []

    # Pools and externals this group touches.
    pools: dict[str, int] = {}
    for p in idx:
        info = _POOL.get(ops[p])
        if info is not None:
            pools[info[0]] = pools.get(info[0], 0) + 1
    n_ld = sum(ops[p] == _OP_LOAD for p in idx)
    n_st = sum(ops[p] == _OP_STORE for p in idx)
    # With two or more memory ops the hit counters fold into locals
    # (nl/ns) added once at the end: nothing below the L1D reads them
    # mid-kernel.
    fold = n_ld + n_st > 1
    binds = ["rr"]
    for pool in pools:
        obj, occ, get, ti, _w, _v = _POOL_NAMES[pool]
        binds += [get, occ, obj, ti]
    if n_ld or n_st:
        binds += ["tth", "l1h"]
    if n_ld:
        binds += ["hl", "l1c"]
    if n_st:
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
    if fold and n_ld:
        w("    nl = 0")
    if fold and n_st:
        w("    ns = 0")

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
    # Pool -> (slot local, began at base) of the pool's latest claim.
    last_claim: dict[str, tuple[str, bool]] = {}

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
            _obj, occ, get, _ti, pw, v = _POOL_NAMES[pool]
            cap = getattr(consts, cap_field)
            s = f"s{i}"
            prev = last_claim.get(pool)
            if e == "base" and prev is not None and prev[1]:
                # The pool's previous claim also probed from base: every
                # cycle in [base, its slot) was full and still is
                # (nothing frees occupancy inside a kernel), and its
                # slot now holds v + 1.
                w(f"    {s} = {prev[0]}")
                w(f"    {v} += 1")
            else:
                w(f"    {s} = {e}")
                w(f"    {v} = {get}({s}, 0)")
            w(f"    while {v} >= {cap}:")
            w(f"        {s} += 1")
            w(f"        {v} = {get}({s}, 0)")
            w(f"    {occ}[{s}] = {v} + 1")
            last_claim[pool] = (s, e == "base")
            w(f"    if {s} > {e}:")
            w(f"        t = {s} - {e}")
            w("        fw += t")
            w(f"        {pw} += t")
            if op == _OP_LOAD or op == _OP_STORE:
                # Inline hit path (see the module docstring).
                params += [f"A{i}=0", f"P{i}=0", f"L{i}=0"]
                set_params += [f"T{i}=None", f"C{i}=None"]
                w(f"    if P{i} in T{i} and L{i} in C{i}:")
                w(f"        T{i}[P{i}] = C{i}[L{i}] = {s}")
                if fold:
                    w(f"        {'nl' if op == _OP_LOAD else 'ns'} += 1")
                else:
                    w("        tth[tid] += 1")
                    w("        l1h[tid] += 1")
                    w(f"        {'l1c' if op == _OP_LOAD else 'stc'}"
                      "[tid] += 1")
                if op == _OP_LOAD:
                    w(f"        {c} = {s} + {consts.l1_latency}")
                    w("    else:")
                    w(f"        {c} = hl(A{i}, {s}, tid, now)")
                else:
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

    # -- per-pool and hit counter folds -------------------------------
    for pool, uses in pools.items():
        obj, _occ, _get, ti, pw, _v = _POOL_NAMES[pool]
        w(f"    {obj}.issues += {uses}")
        w(f"    {ti}[tid] += {uses}")
        w(f"    if {pw}:")
        w(f"        {obj}.total_wait += {pw}")
    if fold:
        hits = "nl + ns" if n_ld and n_st else "nl" if n_ld else "ns"
        w(f"    if {hits}:")
        if n_ld and n_st:
            w(f"        nh = {hits}")
            hits = "nh"
        w(f"        tth[tid] += {hits}")
        w(f"        l1h[tid] += {hits}")
        if n_ld:
            w("        l1c[tid] += nl")
        if n_st:
            w("        stc[tid] += ns")

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

    sig = ", ".join(params + set_params + [f"{b}=None" for b in binds])
    return f"def kernel(now, tid, {sig}):\n" + "\n".join(out) + "\n"


#: Op code -> letter of a body's code label (``_OP_PRIO`` groups take
#: the reference path and get no body).
_OP_LETTERS = "xmflsbn"


def generate_factory_source(compiled: CompiledTrace, consts: KernelConsts
                            ) -> tuple[tuple[tuple[str, str], ...], tuple,
                                       int] | None:
    """Labels and sources of the distinct group bodies of ``compiled``,
    plus the group table.

    Returns ``(bodies, groups, n)``, or None when the trace is not
    kernelizable under ``consts`` (group extents dynamic, or an empty
    trace); callers then fall back to the reference decode path.  Each
    body is a ``(label, source)`` pair: a stand-alone ``def
    kernel(...)`` module and the file name it compiles under,
    ``<trace-kernel {index}:{op letters}>``, so profilers attribute
    time per body.  ``groups`` holds one ``(start, body_index,
    values)`` row per kernelized group start of the ``n``-instruction
    trace (see :func:`compile_factory`).
    """
    n = len(compiled.op)
    if not consts.branch_ends or consts.width < 1 or n == 0:
        return None
    # Loop-structured traces repeat group bodies across iterations:
    # each distinct body is compiled once.  A body is a function of
    # the group's op/dst/s1/s2 columns, so text is emitted only for a
    # column signature not seen before.
    ops, dsts, s1s, s2s = compiled.op, compiled.dst, compiled.s1, compiled.s2
    bodies: dict[str, tuple[int, str]] = {}
    by_shape: dict[tuple, int] = {}
    tags: dict[int, int] = {}
    groups = []
    for g0, (end, has_prio) in partition_groups(compiled, consts).items():
        if has_prio:
            continue  # reference path: may rebuild the arbiter
        shape = (tuple(ops[g0:end]), tuple(dsts[g0:end]),
                 tuple(s1s[g0:end]), tuple(s2s[g0:end]))
        b = by_shape.get(shape)
        if b is None:
            body = _emit_group(compiled, g0, end, consts)
            if body not in bodies:
                k = len(bodies)
                letters = "".join(_OP_LETTERS[op] for op in shape[0])
                bodies[body] = (k, f"<trace-kernel {k}:{letters}>")
            b = by_shape[shape] = bodies[body][0]
        groups.append((g0, b, _group_values(compiled, g0, end, consts,
                                            tags)))
    return (tuple((label, body) for body, (_k, label) in bodies.items()),
            tuple(groups), n)


def _bind_env(rr, fxu, lsu, fpu, bxu, hl, hs, predict, tlbs, l1s, tth,
              l1h, l1c, stc) -> dict:
    """Bind name -> object for the state kernels take as defaults
    (``rr`` is the thread slot's scoreboard)."""
    env = {"rr": rr, "hl": hl, "hs": hs, "predict": predict,
           "tlbs": tlbs, "l1s": l1s, "tth": tth, "l1h": l1h, "l1c": l1c,
           "stc": stc}
    for pool, (obj, occ, get, ti, _w, _v) in zip((fxu, lsu, fpu, bxu),
                                                 _POOL_NAMES.values()):
        env.update({obj: pool, occ: pool._occupied,
                    get: pool._occupied.get, ti: pool.thread_issues})
    return env


def compile_factory(bodies: tuple[tuple[str, str], ...], groups: tuple,
                    n: int):
    """Compile generated group bodies into a kernel factory.

    Each body is compiled on its own, under its own label, so the
    compiler's peak memory is that of one body, not of the whole
    trace.  The factory takes the :func:`_bind_env` arguments and
    instantiates one function per ``groups`` row over its body's code
    object, with the group's values and the bound state as defaults;
    the trailing D-TLB and L1D set indices among the values become the
    set dicts themselves (identity-stable: ``reset`` clears them in
    place).  It returns the position-indexed kernel list (None at
    reference-decode starts).
    """
    protos = []
    for label, body in bodies:
        ns: dict = {}
        exec(compile(body, label, "exec"), ns)  # noqa: S102 (own codegen)
        f = ns["kernel"]
        code = f.__code__
        n_sets = sum(v[0] in "TC" and v[1:].isdigit()
                     for v in code.co_varnames[:code.co_argcount])
        protos.append((f, n_sets))

    def make_kernels(*binds):
        env = _bind_env(*binds)
        set_of = (env["tlbs"] + env["l1s"]).__getitem__
        bound: dict[int, tuple] = {}
        kernels: list = [None] * n
        for g0, b, pre in groups:
            f, n_sets = protos[b]
            code = f.__code__
            state = bound.get(b)
            if state is None:
                state = bound[b] = tuple(
                    env[v] for v in
                    code.co_varnames[2 + len(pre):code.co_argcount])
            if n_sets:
                k = len(pre) - n_sets
                pre = pre[:k] + tuple(map(set_of, pre[k:]))
            kernels[g0] = FunctionType(code, f.__globals__, f.__name__,
                                       pre + state, None)
        return kernels
    return make_kernels
