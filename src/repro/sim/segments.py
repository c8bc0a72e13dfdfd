"""The executor's segment compiler: hot-loop replay cache.

The paper's performance argument is that the common path of every
thread primitive is a short, predictable instruction sequence.  The
executor exploits the same property at the *host* level: a loop body
whose ops run between two interruption points is deterministic given a
small set of guards (mutex ownership, empty waiter queues, no event due
inside the window), so after interpreting one iteration the executor
can *replay* the loop -- one compiled Python function per location, one
clock store per batch -- instead of re-dispatching every op through the
interpreter loop.

Correctness model
-----------------

A segment is recorded by interpreting ops through the executor's own
step (``PthreadsRuntime._interpret``) while a *certifier* checks, after
each op, that the op's entire observable effect is captured by a
closed-form template:

- the op object is the canonical cached instance (so replay can match
  it with a single ``is``);
- the virtual-clock delta equals the template's constant;
- no event was scheduled, cancelled, or fired;
- the library kernel was not left in a flagged state and no dispatch
  happened;
- every mutated field (owner/cell/counters/held list) matches the
  template's effect list.

Only a certified run that closes back on the location it started at,
and whose iteration restores every guarded field, compiles; anything
else is a failed recording.  Replay then re-applies exactly those
effects, under guard checks that re-establish the recorded
preconditions, while a *limit* derived from the event horizon
guarantees no event becomes due inside the replayed window -- any rule
that would fire mid-loop (timer expiry, watcher) either ends the
recording (the event fired while recording, so certification stopped
there) or forces interpretation at replay time (the horizon bound
fails, the step budget fails, or a clock watcher is attached).
Simulated time, ``Runtime.steps``, per-thread ``cpu_cycles`` and every
library counter advance bit-identically to interpretation; the property
tests in ``tests/properties/test_prop_segment_equivalence.py`` assert
digest equality against forced interpretation
(``RuntimeConfig(segments=False)``).

Bypass rules (checked before any replay or recording):

- a clock watcher is attached (obs profiler / tracer demand per-spend
  granularity -- the cache is bypassed rather than distributing
  breakdowns, so attribution stays exact);
- a choice source is attached (``repro.check``): segments would hide
  ``choose()`` points from the explorer, so the cache is bypassed and
  DFS reports are byte-identical with the cache on or off;
- a scheduling policy, trace sink, or check context is attached;
- the kernel/dispatcher flags are set or signals are deferred.

Keying: a location is a (generator code object, ``f_lasti``) pair and
is in one of three states: counting visits (an ``int``), compiled (a
:class:`_Segment`), or :data:`_BLACKLISTED` after its one recording
failed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core import config as cfg
from repro.hw import costs
from repro.sim.ops import LibCall, Work

#: Location state after a failed recording: never replayed or recorded.
_BLACKLISTED = object()

#: Visits to a location before its recording is attempted.
_RECORD_AFTER = 8
#: Maximum ops recorded into one loop body (also bounds generated-code
#: size, and with it the one-time host cost of compiling a segment).
_MAX_OPS = 16
#: Minimum certified ops worth compiling.
_MIN_OPS = 2
#: Global cap on compiled segments per runtime.
_MAX_SEGMENTS = 512

#: Step budget / until sentinel: effectively unbounded.
_NO_BOUND = 1 << 62

#: Process-wide generated-source -> code-object cache.  Generated
#: source carries no object identities (those go through the closure
#: env), so it is safe to share across runtimes.  Bounded as a leak
#: guard; overflow simply recompiles.
_SOURCE_CACHE: Dict[str, Any] = {}
_SOURCE_CACHE_MAX = 4096


class _SegStep:
    """One certified op: identity, result, cycle constant, IR."""

    __slots__ = ("op", "result", "cycles", "guards", "effects")

    def __init__(self, op, result, cycles, guards, effects) -> None:
        self.op = op
        self.result = result  # "none" | "zero"
        self.cycles = cycles
        self.guards = guards  # tuple of guard IR tuples
        self.effects = effects  # tuple of effect IR tuples


class _Segment:
    """A compiled loop: replay function plus the op that starts it."""

    __slots__ = ("fn", "first_op")

    def __init__(self, fn, first_op) -> None:
        self.fn = fn
        self.first_op = first_op


class SegmentSpace:
    """Per-runtime segment cache: lookup, recording, replay."""

    def __init__(self, runtime) -> None:
        from repro.core.api import _WORK_CACHE

        self.rt = runtime
        self._work_cache = _WORK_CACHE
        self._by_code: Dict[Any, Dict[int, Any]] = {}
        table = runtime.world._costs
        insn = table[costs.INSN]
        self._c_lock = (
            table[costs.PROTOCOL_CHECK] + table[costs.MUTEX_FAST_LOCK]
            + 7 * insn
        )
        self._c_unlock = (
            table[costs.PROTOCOL_CHECK] + table[costs.MUTEX_FAST_UNLOCK]
        )
        self._c_signal = (
            table[costs.ENTER_KERNEL] + table[costs.COND_SIGNAL_WORK]
            + table[costs.LEAVE_KERNEL]
        )
        # exec.segment.* counters (harvested as info records by the
        # host bench suite and shown by ``python -m repro.obs report``).
        self.segments_compiled = 0
        self.hits = 0
        self.misses = 0
        self.steps_replayed = 0
        self.cycles_replayed = 0
        self.recordings = 0
        self.record_failures = 0

    # -- introspection -----------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """The ``exec.segment.*`` counter block."""
        return {
            "exec.segment.compiled": self.segments_compiled,
            "exec.segment.hits": self.hits,
            "exec.segment.misses": self.misses,
            "exec.segment.steps_replayed": self.steps_replayed,
            "exec.segment.cycles_replayed": self.cycles_replayed,
            "exec.segment.recordings": self.recordings,
            "exec.segment.record_failures": self.record_failures,
        }

    # -- the executor hook -------------------------------------------------

    def try_step(self, tcb, frame) -> bool:
        """Attempt to serve the current executor step from the cache.

        Returns True when the step (and possibly many following steps)
        was fully performed -- bookkeeping included -- and False when
        the caller must interpret normally.
        """
        gen = frame.gen
        gi = gen.gi_frame
        if gi is None:
            return False
        by_code = self._by_code
        table = by_code.get(gen.gi_code)
        if table is None:
            by_code[gen.gi_code] = table = {}
        lasti = gi.f_lasti
        entry = table.get(lasti, 0)
        if entry is _BLACKLISTED:
            return False
        rt = self.rt
        if frame.pending_exc is not None:
            return False
        world = rt.world
        if (
            world.clock._watchers
            or world.choices is not None
            or world.trace is not None
            or rt.policy is not None
            or rt.check is not None
        ):
            return False
        kern = rt.kern
        if (
            kern.kernel_flag
            or kern.dispatcher_flag
            or kern.deferred_signals
            or kern.deferred_upcalls
            or tcb.pending_interrupt_frames
        ):
            return False
        if type(entry) is _Segment:
            return self._replay(tcb, frame, entry)
        if entry + 1 < _RECORD_AFTER:
            table[lasti] = entry + 1
            return False
        if self.segments_compiled >= _MAX_SEGMENTS:
            table[lasti] = _BLACKLISTED
            return False
        return self._record(tcb, frame, table, lasti)

    # -- replay ------------------------------------------------------------

    def _bounds(self) -> Tuple[Optional[int], int, int]:
        rt = self.rt
        limit = rt.world.events.next_time()
        until = rt._until_cycles
        if until is None:
            until = _NO_BOUND
        max_steps = rt._max_steps
        budget = _NO_BOUND if max_steps is None else max_steps - rt.steps
        return limit, until, budget

    def _replay(self, tcb, frame, seg) -> bool:
        rt = self.rt
        clock = rt.world.clock
        limit, until, budget = self._bounds()
        value = frame.pending_value
        frame.pending_value = None
        fn = seg.fn
        op = None
        total = 0
        while True:
            t_before = clock.cycles
            code, n, t, val, op = fn(
                rt, tcb, frame, value, limit, until, budget, op
            )
            if n:
                clock.cycles = t
                rt.steps += n
                tcb.cpu_cycles += t - t_before
                self.cycles_replayed += t - t_before
                total += n
                if budget is not _NO_BOUND:
                    budget -= n
            if code or op is None or not n or op is not seg.first_op:
                break
            value = None  # the loop exited at its first op: re-enter
        if total:
            self.hits += 1
            self.steps_replayed += total
        if code:
            # A resume raised: that step ends as an interpreted one would.
            rt.steps += 1
            rt._resume_ended(tcb, frame, val, clock.cycles)
            return True
        if op is None:
            frame.pending_value = val
            return bool(total)
        # The loop left through an op it does not cover: interpret
        # that op here (the send already happened).
        self.misses += 1
        rt._interpret(tcb, frame, op)
        return True

    # -- recording ---------------------------------------------------------

    def _record(self, tcb, frame, table, lasti) -> bool:
        """Interpret ops (through the executor's own step), certifying
        each; compile the certified run if it closes into a loop, else
        blacklist the location.

        The steps are *performed* regardless of whether certification
        succeeds, so this is always a complete executor step (or
        several) from the caller's point of view.
        """
        rt = self.rt
        self.recordings += 1
        world = rt.world
        clock = world.clock
        events = world.events
        kern = rt.kern
        frames = tcb.frames._frames
        steps: List[_SegStep] = []
        while len(steps) < _MAX_OPS:
            pre_clock = clock.cycles
            pre_seq = events._seq
            pre_live = events._live
            pre_enters = kern.enters
            pre_dispatch = rt.dispatcher.dispatch_calls
            op = rt._interpret(tcb, frame)
            if op is None:
                break  # the body returned or raised
            if (
                rt.current is not tcb
                or not frames
                or frames[-1] is not frame
                or frame.pending_exc is not None
                or frame.remaining_work
                or kern.kernel_flag
                or kern.dispatcher_flag
            ):
                break
            step = self._certify(
                tcb, frame, op,
                pre_clock, pre_seq, pre_live, pre_enters, pre_dispatch,
            )
            if step is None:
                break
            steps.append(step)
            gi = frame.gen.gi_frame
            if gi is not None and gi.f_lasti == lasti:
                seg = self._compile(steps) if len(steps) >= _MIN_OPS else None
                if seg is not None:
                    table[lasti] = seg
                    self.segments_compiled += 1
                    return True
                break
        table[lasti] = _BLACKLISTED
        self.record_failures += 1
        return True

    # -- certification -----------------------------------------------------

    def _certify(
        self, tcb, frame, op,
        pre_clock, pre_seq, pre_live, pre_enters, pre_dispatch,
    ) -> Optional[_SegStep]:
        rt = self.rt
        world = rt.world
        events = world.events
        if events._seq != pre_seq or events._live != pre_live:
            return None  # an event was scheduled, cancelled, or fired
        delta = world.clock.cycles - pre_clock
        op_class = op.__class__
        if op_class is Work:
            if self._work_cache.get(op.cycles) is not op:
                return None
            if delta != op.cycles or frame.pending_value is not None:
                return None
            if rt.kern.enters != pre_enters:
                return None
            return _SegStep(op, "none", delta, (), ())
        if op_class is not LibCall:
            return None
        name = op.name
        result = frame.pending_value
        if name == "mutex_lock":
            m = op.args[0]
            if getattr(m, "_seg_lock_op", None) is not op:
                return None
            seq = m.lock_sequence
            if (
                result != 0
                or m.protocol != cfg.PRIO_NONE
                or m.destroyed
                or m.owner is not tcb
                or m.cell.value != 0xFF
                or seq.interrupt_hook is not None
                or rt.kern.enters != pre_enters
                or delta != self._c_lock
            ):
                return None
            return _SegStep(
                op, "zero", delta,
                (
                    ("not_attr", m, "destroyed"),
                    ("attr_is_none", m, "owner"),
                    ("attr_eq", m.cell, "value", 0),
                    ("attr_is_none", seq, "interrupt_hook"),
                ),
                (
                    ("inc", seq, "runs", 1),
                    ("set_const", m.cell, "value", 0xFF),
                    ("set_tcb", m, "owner"),
                    ("inc", m, "acquisitions", 1),
                    ("held_append", m, None),
                ),
            )
        if name == "mutex_unlock":
            m = op.args[0]
            if getattr(m, "_seg_unlock_op", None) is not op:
                return None
            if (
                result != 0
                or m.protocol != cfg.PRIO_NONE
                or m.destroyed
                or m.owner is not None
                or m.cell.value != 0
                or m.waiters
                or rt.kern.enters != pre_enters
                or delta != self._c_unlock
            ):
                return None
            return _SegStep(
                op, "zero", delta,
                (
                    ("not_attr", m, "destroyed"),
                    ("attr_is_tcb", m, "owner"),
                    ("empty", m.waiters, None),
                ),
                (
                    ("set_const", m.cell, "value", 0),
                    ("set_none", m, "owner"),
                    ("held_remove", m, None),
                ),
            )
        if name == "cond_signal":
            c = op.args[0]
            if getattr(c, "_seg_signal_op", None) is not op:
                return None
            if (
                result != 0
                or c.destroyed
                or c.waiters
                or rt.kern.enters != pre_enters + 1
                or rt.dispatcher.dispatch_calls != pre_dispatch
                or delta != self._c_signal
            ):
                return None
            return _SegStep(
                op, "zero", delta,
                (
                    ("not_attr", c, "destroyed"),
                    ("empty", c.waiters, None),
                ),
                (
                    ("inc", rt.kern, "enters", 1),
                    ("inc", c, "signals_sent", 1),
                ),
            )
        return None

    # -- compilation -------------------------------------------------------

    def _compile(self, steps: List[_SegStep]) -> Optional[_Segment]:
        """Generate and exec the replay function for a certified loop.

        Returns None when one iteration does not restore every guarded
        field (the guards could then not hoist out of the loop).

        The generated code keeps no per-op bookkeeping: every exit site
        (op mismatch, exception, clean stop) statically knows how many
        ops completed and how many cycles they cost, so the hot loop is
        just sends, identity checks, and one add per iteration.  All
        effect application is deferred: counters are applied once at
        exit (``delta * iterations``) and mid-iteration exits carry
        statically-known fix-up assignments.
        """
        env_names: Dict[int, str] = {}
        env_objs: List[Any] = []

        def ref(obj) -> str:
            name = env_names.get(id(obj))
            if name is None:
                name = "v%d" % len(env_objs)
                env_names[id(obj)] = name
                env_objs.append(obj)
            return name

        n_ops = len(steps)
        total = sum(s.cycles for s in steps)
        lit = {"none": "None", "zero": "0"}

        # Pass 1: entry guards, symbolic state, aggregated effects, and
        # a per-site snapshot of the prefix state (for exit fix-ups).
        entry_guards: List[str] = []
        guard_expect: Dict[Tuple[str, str], Any] = {}
        sym: Dict[Tuple[str, str], Any] = {}
        state_now: Dict[Tuple[str, str], Any] = {}
        counter_now: Dict[Tuple[str, str], int] = {}
        held_now: List[Tuple[str, str]] = []
        held_balance: Dict[str, int] = {}
        uses_held = False
        prefix_cycles: List[int] = []
        snapshots = []
        op_refs: List[str] = []
        cycles_so_far = 0

        for step in steps:
            op_refs.append(ref(step.op))
            prefix_cycles.append(cycles_so_far)
            snapshots.append(
                (dict(state_now), dict(counter_now), list(held_now))
            )
            for g in step.guards:
                kind, obj, attr = g[0], g[1], g[2]
                nm = ref(obj)
                var = (nm, attr if attr is not None else "__bool__")
                if kind == "not_attr":
                    expr, expect = "not %s.%s" % (nm, attr), False
                elif kind == "attr_is_none":
                    expr, expect = "%s.%s is None" % (nm, attr), "none"
                elif kind == "attr_is_tcb":
                    expr, expect = "%s.%s is tcb" % (nm, attr), "tcb"
                elif kind == "attr_eq":
                    expr, expect = "%s.%s == %r" % (nm, attr, g[3]), g[3]
                elif kind == "empty":
                    expr, expect = "not %s" % nm, False
                else:  # pragma: no cover - unknown guard kind
                    return None
                if var in sym:
                    if sym[var] != expect:
                        return None  # guard cannot hold mid-iteration
                elif var not in guard_expect:
                    guard_expect[var] = expect
                    entry_guards.append(expr)
            for e in step.effects:
                kind, obj = e[0], e[1]
                nm = ref(obj)
                if kind == "held_append":
                    uses_held = True
                    held_now.append(("append", nm))
                    held_balance[nm] = held_balance.get(nm, 0) + 1
                    continue
                if kind == "held_remove":
                    uses_held = True
                    held_now.append(("remove", nm))
                    held_balance[nm] = held_balance.get(nm, 0) - 1
                    continue
                var = (nm, e[2])
                if kind == "inc":
                    counter_now[var] = counter_now.get(var, 0) + e[3]
                    sym[var] = "opaque"
                elif kind == "set_const":
                    state_now[var] = e[3]
                    sym[var] = e[3]
                elif kind == "set_tcb":
                    state_now[var] = "tcb"
                    sym[var] = "tcb"
                elif kind == "set_none":
                    state_now[var] = "none"
                    sym[var] = "none"
                else:  # pragma: no cover - unknown effect kind
                    return None
            cycles_so_far += step.cycles

        # The guards hoist out of the loop only when one full iteration
        # provably restores every guarded field.
        for var, expect in guard_expect.items():
            final = sym.get(var)
            if final is not None and final != expect:
                return None
        if any(held_balance.values()):
            return None
        if set(counter_now) & set(state_now):
            return None

        out: List[Tuple[int, str]] = []

        def emit(indent: int, text: str) -> None:
            out.append((indent, text))

        def render_tok(tok) -> str:
            if tok == "tcb":
                return "tcb"
            if tok == "none":
                return "None"
            return repr(tok)

        def fixup(indent: int, i: int) -> None:
            """State/counter/held repair for 'i ops completed'."""
            state, cnt, held_ops = snapshots[i]
            for (nm, attr), tok in state.items():
                emit(indent, "%s.%s = %s" % (nm, attr, render_tok(tok)))
            for verb, nm in held_ops:
                emit(indent, "held.%s(%s)" % (verb, nm))
            for (nm, attr), prefix in cnt.items():
                full = counter_now.get((nm, attr), 0)
                if full and prefix:
                    emit(
                        indent,
                        "%s.%s += %d * it + %d" % (nm, attr, full, prefix),
                    )
                elif full:
                    emit(indent, "%s.%s += %d * it" % (nm, attr, full))
                elif prefix:
                    emit(indent, "%s.%s += %d" % (nm, attr, prefix))
            # Counters whose first touch is after site i still owe the
            # completed-iterations part.
            for (nm, attr), full in counter_now.items():
                if (nm, attr) not in cnt and full:
                    emit(indent, "%s.%s += %d * it" % (nm, attr, full))

        def n_expr(i: int) -> str:
            if i:
                return "%d * it + %d" % (n_ops, i)
            return "%d * it" % n_ops

        def t_expr(i: int) -> str:
            p = prefix_cycles[i]
            return "t + %d" % p if p else "t"

        def raised(indent: int, i: int) -> None:
            # The runtime classifies the exception (_resume_ended).
            fixup(indent, i)
            emit(
                indent,
                "return (1, %s, %s, exc, None)" % (n_expr(i), t_expr(i)),
            )

        def op_block(indent: int, i: int) -> None:
            # The generator body runs inside each send and may read
            # ``world.now``: publish the exact interpreted clock (the
            # charge of every completed op) before resuming it, or
            # mid-iteration time observations would see a stale clock.
            if i == 0:
                emit(indent, "if op is None:")
                emit(indent + 1, "ck.cycles = t")
                emit(indent + 1, "try:")
                emit(indent + 2, "op = send(value)")
                emit(indent + 1, "except BaseException as exc:")
                raised(indent + 2, 0)
            else:
                p = prefix_cycles[i]
                emit(indent, "ck.cycles = t + %d" % p if p else "ck.cycles = t")
                emit(indent, "try:")
                emit(indent + 1, "op = send(%s)" % lit[steps[i - 1].result])
                emit(indent, "except BaseException as exc:")
                raised(indent + 1, i)
            emit(indent, "if op is not %s:" % op_refs[i])
            fixup(indent + 1, i)
            emit(
                indent + 1,
                "return (0, %s, %s, None, op)" % (n_expr(i), t_expr(i)),
            )

        emit(0, "def _make(env):")
        if env_objs:
            emit(
                1,
                "(%s,) = env"
                % ", ".join("v%d" % j for j in range(len(env_objs))),
            )
        emit(
            1,
            "def _replay(rt, tcb, frame, value, limit, until, budget, op):",
        )
        emit(2, "ck = rt.world.clock")
        emit(2, "t = ck.cycles")
        if entry_guards:
            emit(2, "if not (%s):" % " and ".join(entry_guards))
            emit(3, "return (0, 0, t, value, op)")
        emit(2, "k = budget // %d" % n_ops)
        emit(2, "if limit is not None:")
        emit(3, "k2 = (limit - t - 1) // %d" % total)
        emit(3, "if k2 < k:")
        emit(4, "k = k2")
        emit(2, "if until != %d:" % _NO_BOUND)
        emit(3, "k2 = (until - t - 1) // %d" % total)
        emit(3, "if k2 < k:")
        emit(4, "k = k2")
        emit(2, "if k <= 0:")
        emit(3, "return (0, 0, t, value, op)")
        emit(2, "send = frame.gen.send")
        if uses_held:
            emit(2, "held = tcb.held_mutexes")
        emit(2, "it = 0")
        emit(2, "while it < k:")
        for i in range(n_ops):
            op_block(3, i)
        emit(3, "value = %s" % lit[steps[-1].result])
        emit(3, "op = None")
        emit(3, "t += %d" % total)
        emit(3, "it += 1")
        for (nm, attr), full in counter_now.items():
            if full:
                emit(2, "%s.%s += %d * it" % (nm, attr, full))
        emit(2, "return (0, %d * it, t, value, None)" % n_ops)
        emit(1, "return _replay")

        code = "\n".join("    " * ind + text for ind, text in out) + "\n"
        namespace: Dict[str, Any] = {}
        # The generated source depends only on segment *structure*
        # (op kinds, costs, guard constants) -- captured objects enter
        # through the _make(env) closure.  Identical workloads therefore
        # regenerate identical source across runtimes and repeats, so a
        # process-wide source->code-object cache turns the ~1ms
        # compile() into a dict hit.
        code_obj = _SOURCE_CACHE.get(code)
        if code_obj is None:
            try:
                code_obj = compile(code, "<segment>", "exec")
            except SyntaxError:  # pragma: no cover - codegen bug guard
                import sys

                print(code, file=sys.stderr)
                raise
            if len(_SOURCE_CACHE) < _SOURCE_CACHE_MAX:
                _SOURCE_CACHE[code] = code_obj
        exec(code_obj, namespace)  # noqa: S102
        fn = namespace["_make"](tuple(env_objs))
        return _Segment(fn, steps[0].op)
