"""ISCAS85/ISCAS89 ``.bench`` netlist reader.

The paper evaluates on the ISCAS85 suite, which is distributed in the
``.bench`` format::

    INPUT(1)
    OUTPUT(22)
    10 = NAND(1, 3)

:func:`load_bench` turns such a file into a :class:`Circuit`: primary
inputs become drivers, each assignment becomes a gate, and every
connection gets a wire whose length is drawn from a seeded distribution
(netlists carry no geometry, so lengths are a declared substitution — see
``docs/architecture.md``, "Model choices: substitutions").  Sequential elements (``DFF``) are rejected by default
because the paper optimizes the combinational part only; pass
``dff_as_buffer=True`` to cut the sequential loop the usual way (treat the
flop as a buffer fed by a pseudo-input boundary is *not* modeled — the
flop simply becomes a combinational buffer, which is only sound for
acyclic netlists).
"""

import pathlib
import re

from repro.circuit.builder import CircuitBuilder
from repro.tech import Technology
from repro.utils.errors import CircuitError
from repro.utils.rng import make_rng

_SUPPORTED = {"and", "or", "nand", "nor", "xor", "xnor", "not", "buf", "buff"}

_ASSIGN_RE = re.compile(r"^\s*(\S+)\s*=\s*([A-Za-z][A-Za-z0-9]*)\s*\(([^)]*)\)\s*$")
_IO_RE = re.compile(r"^\s*(INPUT|OUTPUT)\s*\(\s*([^)\s]+)\s*\)\s*$", re.IGNORECASE)


def load_bench(path, tech=None, seed=0, wire_length_range=(50.0, 300.0),
               dff_as_buffer=False, name=None):
    """Parse the ``.bench`` file at ``path`` into a :class:`Circuit`."""
    path = pathlib.Path(path)
    text = path.read_text()
    return load_bench_text(text, tech=tech, seed=seed,
                           wire_length_range=wire_length_range,
                           dff_as_buffer=dff_as_buffer,
                           name=name or path.stem)


def load_bench_text(text, tech=None, seed=0, wire_length_range=(50.0, 300.0),
                    dff_as_buffer=False, name="bench"):
    """Parse ``.bench`` source text into a :class:`Circuit`.

    Assignments may appear in any order; they are topologically sorted
    before construction.  Raises :class:`CircuitError` on undefined
    signals, unsupported gate types, combinational cycles, or duplicate
    definitions.
    """
    inputs, outputs, assigns = _parse_lines(text, dff_as_buffer)
    order = _topo_order(inputs, assigns)

    rng = make_rng(seed)
    lo, hi = wire_length_range
    if not (0 < lo <= hi):
        raise CircuitError("wire_length_range must satisfy 0 < lo <= hi")

    builder = CircuitBuilder(tech=tech or Technology.dac99(), name=name)
    refs = {sig: builder.add_input(name=f"in:{sig}") for sig in inputs}
    for sig in order:
        fn, operands = assigns[sig]
        lengths = rng.uniform(lo, hi, size=len(operands)).tolist()
        refs[sig] = builder.add_gate(fn, [refs[op] for op in operands],
                                     name=f"gate:{sig}", wire_lengths=lengths)
    for sig in outputs:
        if sig not in refs:
            raise CircuitError(f"OUTPUT({sig}) references an undefined signal")
        builder.set_output(refs[sig], wire_length=float(rng.uniform(lo, hi)))
    return builder.build()


def _parse_lines(text, dff_as_buffer):
    inputs, outputs, assigns = [], [], {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        io_match = _IO_RE.match(line)
        if io_match:
            bucket = inputs if io_match.group(1).upper() == "INPUT" else outputs
            bucket.append(io_match.group(2))
            continue
        assign = _ASSIGN_RE.match(line)
        if not assign:
            raise CircuitError(f".bench line {lineno}: cannot parse {raw!r}")
        target, fn, arglist = assign.group(1), assign.group(2).lower(), assign.group(3)
        operands = [a.strip() for a in arglist.split(",") if a.strip()]
        if fn == "dff":
            if not dff_as_buffer:
                raise CircuitError(
                    f".bench line {lineno}: sequential element DFF not supported "
                    "(pass dff_as_buffer=True to treat flops as buffers)"
                )
            fn = "buf"
        if fn not in _SUPPORTED:
            raise CircuitError(f".bench line {lineno}: unsupported gate type {fn!r}")
        if fn in ("not", "buf", "buff") and len(operands) != 1:
            raise CircuitError(f".bench line {lineno}: {fn} takes exactly one operand")
        if fn not in ("not", "buf", "buff") and len(operands) < 2:
            raise CircuitError(f".bench line {lineno}: {fn} needs at least two operands")
        if target in assigns:
            raise CircuitError(f".bench line {lineno}: signal {target!r} defined twice")
        assigns[target] = ("buf" if fn == "buff" else fn, operands)
    if not inputs:
        raise CircuitError(".bench netlist declares no INPUT signals")
    if not outputs:
        raise CircuitError(".bench netlist declares no OUTPUT signals")
    for sig in inputs:
        if sig in assigns:
            raise CircuitError(f"signal {sig!r} is both an INPUT and a gate output")
    return inputs, outputs, assigns


def _topo_order(inputs, assigns):
    """Kahn topological sort of gate assignments; detects cycles/undefined."""
    defined = set(inputs)
    pending = {}  # gate -> number of operands not yet defined
    dependents = {}  # signal -> gates waiting on it
    for sig, (_, operands) in assigns.items():
        missing = 0
        for op in operands:
            if op in defined:
                continue
            if op not in assigns:
                raise CircuitError(f"gate {sig!r} references undefined signal {op!r}")
            missing += 1
            dependents.setdefault(op, []).append(sig)
        pending[sig] = missing
    order = []
    ready = [sig for sig, missing in pending.items() if missing == 0]
    while ready:
        sig = ready.pop()
        order.append(sig)
        for waiter in dependents.get(sig, ()):
            pending[waiter] -= 1
            if pending[waiter] == 0:
                ready.append(waiter)
    if len(order) != len(assigns):
        stuck = sorted(sig for sig, missing in pending.items() if missing > 0)
        raise CircuitError(f"combinational cycle among: {stuck[:5]}")
    return order


def builtin_bench_path(name):
    """Path of a ``.bench`` file shipped with the library (e.g. ``"c17"``)."""
    path = pathlib.Path(__file__).parent / "data" / f"{name}.bench"
    if not path.exists():
        raise CircuitError(f"no builtin bench named {name!r}")
    return path
