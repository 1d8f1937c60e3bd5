"""Forward-mode dual-number arithmetic for exact directional derivatives.

Two representations of the same algebra:

* ``Dual`` -- single tangent, nestable.  Components may be floats, numpy
  arrays (for batched sweeps) or further ``Dual`` values; nesting d levels
  deep yields exact d-th order directional derivatives.  This is the
  general-purpose path used by the bracket calculus.
* ``HyperDual`` -- a flattened two-level dual (value, two first-order
  tangents, one cross term), algebraically identical to
  ``Dual(Dual(a, b), Dual(c, d))`` but a single flat object.  The bracket
  tableau's second-order evaluations use it: while a kernel is recorded,
  and on the array and reference paths (hot paths run compiled code).

Components of one expression must stay within one representation; the two
are never mixed in a single evaluation.

A third scalar, ``Rec``, carries no number at all: it records every float
operation the dual arithmetic performs on it into a ``Tape``, which then
compiles the live operations into one straight-line Python function.  Only
rewrites that cannot change a finite result are made while recording:
identical operations are shared (``+`` and ``*`` with canonical operand
order), ``x*0`` and ``0/x`` become the structural zero ``0.0``, ``x*1`` and
``x+-0`` become ``x``, and operations no output needs are dropped.  A folded
``0/x`` leaves a zero check of x behind, so the compiled function still
raises ZeroDivisionError where the division would.  Nothing is
reassociated or simplified algebraically.  So on inputs at which the
replayed evaluation stays finite the compiled function returns the same
numbers (``==``, bit for bit except possibly the sign of a zero); on
non-finite input a structural zero stays ``0.0`` where the replayed
evaluation would give ``nan``.  The same tape also compiles to a batched
function over numpy arrays (one sample per element) that masks, per
sample, every place where the float function raises.

``compiled`` is the one store of such kernels, built on first use and kept
per owner (a plant); ``chunks`` runs a batched one over a long batch.
Where a float kernel stops (``STOPS``), its caller runs the reference.
"""
from __future__ import annotations

import math
import re
import weakref

import numpy as np

class Dual:
    """Number carrying a value and one tangent (derivative) slot."""

    __slots__ = ("re", "im")
    __array_ufunc__ = None  # force numpy to defer to our reflected ops

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def __repr__(self):
        return f"Dual({self.re!r}, {self.im!r})"

    def __add__(self, o):
        if type(o) is Dual:
            return Dual(self.re + o.re, self.im + o.im)
        return Dual(self.re + o, self.im)

    __radd__ = __add__

    def __sub__(self, o):
        if type(o) is Dual:
            return Dual(self.re - o.re, self.im - o.im)
        return Dual(self.re - o, self.im)

    def __rsub__(self, o):
        return Dual(o - self.re, -self.im)

    def __mul__(self, o):
        if type(o) is Dual:
            return Dual(self.re * o.re, self.re * o.im + self.im * o.re)
        return Dual(self.re * o, self.im * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if type(o) is Dual:
            return Dual(self.re / o.re,
                        (self.im * o.re - self.re * o.im) / (o.re * o.re))
        return Dual(self.re / o, self.im / o)

    def __rtruediv__(self, o):
        return Dual(o / self.re, -o * self.im / (self.re * self.re))

    def __neg__(self):
        return Dual(-self.re, -self.im)


class HyperDual:
    """Flat second-order dual: value a, tangents b (eps), c (delta), cross d."""

    __slots__ = ("a", "b", "c", "d")
    __array_ufunc__ = None

    def __init__(self, a, b, c, d):
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    def __repr__(self):
        return f"HyperDual({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"

    def __add__(self, o):
        if type(o) is HyperDual:
            return HyperDual(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)
        return HyperDual(self.a + o, self.b, self.c, self.d)

    __radd__ = __add__

    def __sub__(self, o):
        if type(o) is HyperDual:
            return HyperDual(self.a - o.a, self.b - o.b, self.c - o.c, self.d - o.d)
        return HyperDual(self.a - o, self.b, self.c, self.d)

    def __rsub__(self, o):
        return HyperDual(o - self.a, -self.b, -self.c, -self.d)

    def __mul__(self, o):
        if type(o) is HyperDual:
            return HyperDual(self.a * o.a,
                             self.a * o.b + self.b * o.a,
                             self.a * o.c + self.c * o.a,
                             self.a * o.d + self.b * o.c + self.c * o.b + self.d * o.a)
        return HyperDual(self.a * o, self.b * o, self.c * o, self.d * o)

    __rmul__ = __mul__

    def _reciprocal(self):
        ia = 1.0 / self.a
        ia2 = ia * ia
        return HyperDual(ia, -self.b * ia2, -self.c * ia2,
                         2.0 * self.b * self.c * ia2 * ia - self.d * ia2)

    def __truediv__(self, o):
        if type(o) is HyperDual:
            return self * o._reciprocal()
        return HyperDual(self.a / o, self.b / o, self.c / o, self.d / o)

    def __rtruediv__(self, o):
        return o * self._reciprocal()

    def __neg__(self):
        return HyperDual(-self.a, -self.b, -self.c, -self.d)


class OffTrace(ArithmeticError):
    """A compiled tape met a recorded condition that holds at run time."""


_CONSTANT = (int, float)   # plain scalars a Rec may meet; np.float64 is a float
_INLINED = ("+", "-", "*", "neg", "abs", "<=")
_TESTED = ("/", "nonzero", "sin", "cos")  # a batched mask tests their operand


class Rec:
    """Recording scalar: operations on it append to its Tape, not compute.

    A comparison records a condition node.  Testing it for truth (as in
    ``if bad: raise ...``) records a check and answers False, so the tape
    follows the branch on which every tested condition is false; the
    compiled function raises OffTrace where a check holds.
    """

    __slots__ = ("tape", "idx")
    __array_ufunc__ = None

    def __init__(self, tape, idx):
        self.tape = tape
        self.idx = idx

    def __add__(self, o):
        if type(o) is not Rec and o == 0:
            return self
        return self.tape.op("+", self, o)

    __radd__ = __add__

    def __sub__(self, o):
        if type(o) is not Rec and o == 0:
            return self
        return self.tape.op("-", self, o)

    def __rsub__(self, o):
        return self.tape.op("-", o, self)

    def __mul__(self, o):
        if type(o) is not Rec:
            if o == 0:
                return 0.0
            if o == 1:
                return self
        return self.tape.op("*", self, o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        return self.tape.op("/", self, o)

    def __rtruediv__(self, o):
        if type(o) is not Rec and o == 0:
            # 0/x is 0 wherever it is finite; the check keeps its raise
            self.tape.op("nonzero", self)
            return 0.0
        return self.tape.op("/", o, self)

    def __neg__(self):
        return self.tape.op("neg", self)

    def __abs__(self):
        return self.tape.op("abs", self)

    def __le__(self, o):
        return self.tape.op("<=", self, o)

    def __bool__(self):
        if self.tape.ops[self.idx][0] != "<=":
            raise TypeError("only a recorded comparison can be tested")
        self.tape.op("check", self)
        return False


def _key(a):
    """Identity of an operand for sharing: node index or typed constant."""
    if type(a) is Rec:
        return (1, a.idx)
    if not isinstance(a, _CONSTANT):
        raise TypeError(f"cannot record an operation on {type(a).__name__}")
    return (0, type(a).__name__, repr(a))


class Tape:
    """Operations recorded from Rec inputs, in program order.

    ops[i] = (name, operands) defines node i; an operand is a Rec or a
    constant.  Inputs are nodes named "in".
    """

    def __init__(self):
        self.ops: list[tuple[str, tuple]] = []
        self._names: dict[int, str] = {}
        self._shared: dict[tuple, Rec] = {}

    def input(self, name: str) -> Rec:
        node = Rec(self, len(self.ops))
        self.ops.append(("in", ()))
        self._names[node.idx] = name
        return node

    def op(self, name: str, *args) -> Rec:
        keys = tuple(map(_key, args))
        if name in ("+", "*") and keys[1] < keys[0]:
            args, keys = args[::-1], keys[::-1]
        key = (name, *keys)
        node = self._shared.get(key)
        if node is None:
            node = self._shared[key] = Rec(self, len(self.ops))
            self.ops.append((name, args))
        return node

    def compile(self, outputs, name: str = "kernel", batched: bool = False,
                numpy_trig: bool = False):
        """Python function of the inputs returning ``outputs``.

        outputs is a nest of lists and tuples over Recs and constants; the
        function builds the same nest of floats.  Emitted in recorded
        order: every node an output needs, every check, and every division
        by a node or zero check of a folded ``0/x`` (either can raise
        ZeroDivisionError, as the replayed evaluation would).  Operations
        that cannot raise and have one consumer are written inline into
        it.  A temporary's name is reused once the last statement that
        reads it has run, so the function has as many locals as values
        alive at once, not one per temporary (past 255, CPython spends an
        EXTENDED_ARG on every further local).  The source is kept as
        ``fn.source``.

        batched=True emits the same operations for numpy array inputs, one
        sample per element (run it under ``np.errstate(all="ignore")``),
        and returns ``(outputs, bad)``.  Where the float function raises,
        the batched one ORs the sample into the mask ``bad`` instead: a
        check that holds, an exact zero divisor or checked ``0/x``
        denominator (one test per operand), an infinite argument of
        sin/cos.  sin/cos apply math.sin/math.cos element by element, so
        every unmasked sample gets the float function's numbers bit for
        bit.  A masked sample's outputs are meaningless.  numpy_trig=True
        applies np.sin/np.cos to the whole array instead: the numbers of an
        evaluation over numpy arrays, which need not equal math's in the
        last bit on every platform.  Each temporary the batched function
        does not return is deleted after the last statement that reads it
        (its name is not reused), so a call holds only its live arrays.

        Compiling spends the tape: the recording is released before Python
        compiles the source.
        """
        source, env = self._source(outputs, name, batched, numpy_trig)
        self.ops.clear()
        self._shared.clear()
        exec(compile(source, f"<{name}>", "exec"), env)
        fn = env[name]
        fn.source = source
        return fn

    def _source(self, outputs, name, batched, numpy_trig):
        """compile's source text and the globals it runs in."""
        live = [False] * len(self.ops)
        uses = [0] * len(self.ops)       # references from live code
        stack = [r.idx for r in _recs(outputs)]
        for i in stack:
            uses[i] += 1
        stack += [i for i, (op, args) in enumerate(self.ops)
                  if op in ("check", "nonzero")
                  or (op == "/" and type(args[1]) is Rec)]
        while stack:
            i = stack.pop()
            if not live[i]:
                live[i] = True
                for a in self.ops[i][1]:
                    if type(a) is Rec:
                        uses[a.idx] += 1
                        stack.append(a.idx)

        # a batched mask tests these operands, so they are computed once
        tested = set()
        if batched:
            tested = {args[-1].idx for op, args in self.ops
                      if op in _TESTED and type(args[-1]) is Rec}
            trig = (np.sin, np.cos) if numpy_trig else (
                _elementwise(math.sin), _elementwise(math.cos))
            env = {"sin": trig[0], "cos": trig[1], "isinf": np.isinf}
        else:
            env = {"sin": math.sin, "cos": math.cos, "OffTrace": OffTrace}
        names = dict(self._names)
        inline: dict[int, str] = {}

        def ref(a):
            if type(a) is Rec:
                return names.get(a.idx) or f"({inline[a.idx]})"
            if type(a) in _CONSTANT and math.isfinite(a):
                return repr(a)
            key = f"k{len(env)}"
            env[key] = a
            return key

        lines = ["    bad = False"] if batched else []
        for i, (op, args) in enumerate(self.ops):
            if not live[i] or op == "in":
                continue
            a = [ref(x) for x in args]
            if op == "check":
                lines.append(f"    bad = bad | {a[0]}" if batched
                             else f"    if {a[0]}: raise OffTrace")
                continue
            if batched and op in _TESTED and type(args[-1]) is Rec:
                test = "isinf({})" if op in ("sin", "cos") else "({} == 0.0)"
                test = "    bad = bad | " + test.format(a[-1])
                if test not in lines:       # one test per operand
                    lines.append(test)
            if op == "nonzero":
                if not batched:
                    lines.append(f"    if {a[0]} == 0.0: "
                                 "raise ZeroDivisionError")
                continue
            if op in ("sin", "cos", "abs"):
                expr = f"{op}({a[0]})"
            elif op == "neg":
                expr = f"-{a[0]}"
            else:
                expr = f"{a[0]} {op} {a[1]}"
            # a single-use operation that cannot raise is written into its
            # consumer: the same float operations in fewer statements; the
            # "(" count bounds the nesting far below the parser's limit
            if (uses[i] == 1 and op in _INLINED and i not in tested
                    and expr.count("(") < 40):
                inline[i] = expr
            else:
                names[i] = f"t{i}"
                lines.append(f"    t{i} = {expr}")
        params = ", ".join(self._names.values())
        result = _nest(outputs, ref)
        if batched:
            result += ", bad"
        dead = _dead_after(lines, keep=set(_TEMP.findall(result)))
        if batched:
            lines = _free_dead(lines, dead)
        else:
            lines, result = _reuse_names(lines, result, dead)
        return (f"def {name}({params}):\n" + "\n".join(lines)
                + f"\n    return {result}\n"), env


# a compiled float function stops with one of these where its reference
# raises: a recorded check that holds, an exact zero divisor (or the checked
# denominator of a folded 0/x), sin/cos of inf
STOPS = (OffTrace, ZeroDivisionError, ValueError)

_COMPILED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def compiled(owner, key, inputs, record, batched: bool = False,
             numpy_trig: bool = False):
    """The kernel ``record`` describes, built once per owner, key and form.

    On first use (never at import) ``record`` runs on one Rec per name in
    ``inputs`` and its outputs go to ``Tape.compile`` (batched and
    numpy_trig as there), as a function named after key: a name, or a
    tuple that starts with one, which fixes what record records.  Kernels
    live as long as their owner, which must not change once it has one.
    The tape is dropped: recording again costs less than keeping it.

    The store is keyed by the owner object, not by its type and
    parameters.  Two equal plants each record their own kernels: a plant
    that counts its own evaluations sees every recording it causes, and a
    dropped plant frees its kernels with it.  A caller that wants kernels
    to carry over keeps the plant (the CLI keeps one per parameter set).
    """
    per_owner = _COMPILED.setdefault(owner, {})
    kernel = per_owner.get((key, batched))
    if kernel is None:
        tape = Tape()
        outputs = record(*[tape.input(name) for name in inputs])
        name = key if type(key) is str else key[0]
        kernel = per_owner[key, batched] = tape.compile(
            outputs, "batched_" + name if batched else name,
            batched=batched, numpy_trig=numpy_trig)
    return kernel


def chunks(kernel, comps, chunk: int):
    """``(part, outputs, bad)`` of a batched kernel over 1-D input arrays,
    ``chunk`` samples (the slice part) at a time, so that its intermediates
    stay small.  Runs, and so does the caller's loop body, under
    ``np.errstate(all="ignore")``: a masked sample's outputs mean nothing.
    """
    with np.errstate(all="ignore"):
        for start in range(0, comps[0].shape[0], chunk):
            part = slice(start, start + chunk)
            yield (part, *kernel(*[np.ascontiguousarray(c[part])
                                   for c in comps]))


_TEMP = re.compile(r"\bt\d+\b")     # the names compile gives temporaries


def _dead_after(lines, keep):
    """{n: temporaries} for each line n that is the last to read them (or
    defines them, if none reads them); the names in keep stay alive."""
    last = {name: n for n, line in enumerate(lines)
            for name in _TEMP.findall(line)}
    dead: dict[int, list[str]] = {}
    for name, n in last.items():
        if name not in keep:
            dead.setdefault(n, []).append(name)
    return dead


def _free_dead(lines, dead):
    """lines with a ``del`` of each temporary after its last reader."""
    out = []
    for n, line in enumerate(lines):
        out.append(line)
        if n in dead:
            out.append("    del " + ", ".join(dead[n]))
    return out


def _reuse_names(lines, result, dead):
    """lines and result with each temporary renamed to a name that is free
    where it is defined: a name is free again once the last reader of its
    temporary has run, so the function needs as many local names as it has
    temporaries alive at once, not one per temporary."""
    slot: dict[str, int] = {}       # temporary -> the number of its name
    free: list[int] = []            # the numbers of the free names
    count = 0

    def rename(text):
        return _TEMP.sub(lambda m: f"t{slot[m.group()]}", text)

    out = []
    for n, line in enumerate(lines):
        target, eq, expr = line.strip().partition(" = ")
        defines = eq and _TEMP.fullmatch(target)
        line = rename(expr if defines else line)
        gone = dead.get(n, ())
        free += [slot[t] for t in gone if t in slot]  # read here, last time
        if defines:
            if not free:
                free.append(count)
                count += 1
            slot[target] = free.pop()
            line = f"    t{slot[target]} = {line}"
            if target in gone:       # never read: free at once
                free.append(slot[target])
        out.append(line)
    return out, rename(result)


def _elementwise(fn):
    """math.sin or math.cos of every element of a 1-D array; nan at an
    infinite element, where fn raises and the batched code masks."""
    def apply(v):
        return np.array([fn(e) if e - e == 0.0 else math.nan
                         for e in v.tolist()])
    return apply


def _nest(v, ref):
    """The source of a nest of lists and tuples, ref(leaf) at its leaves."""
    if isinstance(v, list):
        return "[" + ", ".join(_nest(e, ref) for e in v) + "]"
    if isinstance(v, tuple):
        return "(" + "".join(_nest(e, ref) + ", " for e in v) + ")"
    return ref(v)


def _recs(v):
    if isinstance(v, (list, tuple)):
        for e in v:
            yield from _recs(e)
    elif type(v) is Rec:
        yield v


def sin(v):
    if type(v) is float:
        return math.sin(v)
    if type(v) is Dual:
        return Dual(sin(v.re), cos(v.re) * v.im)
    if type(v) is HyperDual:
        s, co = sin(v.a), cos(v.a)
        return HyperDual(s, v.b * co, v.c * co, v.d * co - v.b * v.c * s)
    if type(v) is Rec:
        return v.tape.op("sin", v)
    return np.sin(v)


def cos(v):
    if type(v) is float:
        return math.cos(v)
    if type(v) is Dual:
        return Dual(cos(v.re), -sin(v.re) * v.im)
    if type(v) is HyperDual:
        s, co = sin(v.a), cos(v.a)
        return HyperDual(co, -v.b * s, -v.c * s, -v.d * s - v.b * v.c * co)
    if type(v) is Rec:
        return v.tape.op("cos", v)
    return np.cos(v)


def value(v):
    """Strip all derivative structure, returning the underlying value."""
    while True:
        if type(v) is Dual:
            v = v.re
        elif type(v) is HyperDual:
            v = v.a
        else:
            return v


def seed(x, v):
    """Lift point x along direction v: list of Dual(x_i, v_i)."""
    return [Dual(xi, vi) for xi, vi in zip(x, v)]

