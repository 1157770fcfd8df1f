"""Declarative scenario specs for the two-stage flow.

The imperative entry point (:class:`~repro.core.flow.NoiseAwareSizingFlow`)
takes live objects; sweeps, caching, and parallel execution need a *value*
instead — something hashable, serializable, and comparable.  This module
provides that value layer:

* :class:`CircuitRef` — where a circuit comes from (Table 1 name, ``.bench``
  path, or generator parameters), buildable and fingerprintable,
* :class:`FlowConfig` — every knob of the two-stage flow (ordering,
  Miller/coupling/delay modes, bound factors, solver options),
* :class:`Scenario` — one ``CircuitRef × FlowConfig`` execution unit with a
  derived deterministic seed and content-hash identity,
* :class:`SweepSpec` — the cross product of circuits × knob axes, expanded
  into scenarios in a stable order.

All four are frozen dataclasses with canonical JSON serialization
(:meth:`canonical_json`): keys sorted, no whitespace, floats via ``repr`` —
byte-stable across processes, which is what the result cache keys on.
"""

import dataclasses
import hashlib
import json
import math
import pathlib

import numpy as np

from repro.core.flow import ORDERING_NAMES
from repro.noise.miller import MillerMode
from repro.timing.elmore import CouplingDelayMode
from repro.utils.errors import ValidationError
from repro.utils.rng import stable_seed

_UPDATE_NAMES = ("multiplicative", "subgradient")


def _canonical_json(data):
    """Deterministic JSON: sorted keys, compact separators."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _content_hash(data):
    return hashlib.sha256(_canonical_json(data).encode()).hexdigest()


def _integral(name, value):
    """``int(value)``, or :class:`ValidationError` for junk and non-integral
    numbers (``2.0`` passes, ``2.5``, NaN and infinity do not)."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(
            f"{name} must be an integer, got {value!r}") from None
    if not isinstance(value, str) and number != value:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return number


def _finite(name, value):
    """``float(value)``, or :class:`ValidationError` for junk, NaN and
    infinity."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValidationError(
            f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return number


def _utf8_column(strings):
    """Length-prefixed UTF-8: a little-endian u4 byte-length column, then
    the concatenated bytes."""
    lengths = np.fromiter((len(text.encode()) for text in strings),
                          dtype="<u4", count=len(strings))
    return lengths, "".join(strings).encode()


def circuit_fingerprint(circuit):
    """SHA-256 over a *built* circuit's canonical column bytes.

    Shared by :meth:`CircuitRef.fingerprint` and the sweep workers (which
    fingerprint the circuit they already constructed, so cache writes in
    the parent never have to build one).

    The digest covers, in order: a header JSON (schema 1, kind
    ``circuit``, the circuit's name and its technology's fields); every
    column of :class:`~repro.circuit.circuit.Circuit` under its
    name with an explicit little-endian dtype (``kind`` as ``i1``, the
    float parameters as ``f8``); the node names and each node's function
    name as length-prefixed UTF-8; and the sorted ``edge_src`` /
    ``edge_dst`` arrays as ``i8``.  Each part is framed by its label and
    byte count and hashed as it is produced, so the same circuit hashes
    equal whether it was built from columns or from a ``Node`` list.
    """
    from repro.circuit.circuit import PARAM_COLUMNS

    digest = hashlib.sha256()

    def part(label, *chunks):
        views = [memoryview(chunk) for chunk in chunks]
        digest.update(f"{label}:{sum(v.nbytes for v in views)}:".encode())
        for view in views:
            digest.update(view)

    def column(name, dtype):
        part(f"{name}:{dtype}",
             np.ascontiguousarray(getattr(circuit, name), dtype=dtype))

    header = {"schema": 1, "kind": "circuit", "name": circuit.name,
              "technology": dataclasses.asdict(circuit.tech)}
    part("header", _canonical_json(header).encode())
    column("kind", "<i1")
    for field in PARAM_COLUMNS:
        column(field, "<f8")
    part("names:utf8", *_utf8_column(circuit.names))
    functions = circuit.functions
    part("functions:utf8", *_utf8_column(
        [functions[c] for c in circuit.function_code.tolist()]))
    column("edge_src", "<i8")
    column("edge_dst", "<i8")
    return digest.hexdigest()


def _normalize_params(pairs):
    """Hashable ``((key, value), ...)`` with sequence values as tuples.

    JSON round-trips turn tuples into lists; normalizing on every path in
    keeps ``CircuitRef`` equality and hashability (the fingerprint memo
    keys on it) intact after deserialization.
    """
    return tuple(
        (str(key), tuple(value) if isinstance(value, (list, tuple)) else value)
        for key, value in pairs
    )


@dataclasses.dataclass(frozen=True)
class CircuitRef:
    """A buildable reference to a circuit (no live graph attached).

    ``kind`` selects the source:

    * ``"iscas85"`` — Table 1 suite entry ``name`` (optional ``seed``
      override, as in :func:`~repro.circuit.iscas85.iscas85_circuit`),
    * ``"bench"`` — ``.bench`` netlist at ``path`` (``seed`` drives the
      synthetic wire lengths),
    * ``"random"`` — :func:`~repro.circuit.generators.random_circuit` with
      ``params`` holding the generator keywords as sorted ``(key, value)``
      pairs.
    """

    kind: str
    name: str = ""
    path: str = ""
    seed: int = 0
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in ("iscas85", "bench", "random"):
            raise ValidationError(
                f"unknown circuit kind {self.kind!r}; "
                "choose from iscas85, bench, random")
        if self.kind == "iscas85" and not self.name:
            raise ValidationError("iscas85 CircuitRef needs a circuit name")
        if self.kind == "bench" and not self.path:
            raise ValidationError("bench CircuitRef needs a netlist path")
        if self.kind == "random" and not self.params:
            raise ValidationError("random CircuitRef needs generator params")

    # -- constructors -----------------------------------------------------------

    @classmethod
    def iscas85(cls, name, seed=0):
        from repro.circuit.iscas85 import ISCAS85_SPECS

        if name not in ISCAS85_SPECS:
            raise ValidationError(
                f"unknown Table 1 circuit {name!r} "
                f"({', '.join(sorted(ISCAS85_SPECS))})")
        return cls(kind="iscas85", name=name, seed=seed)

    @classmethod
    def bench(cls, path, seed=0):
        path = pathlib.Path(path)
        if not path.exists():
            raise ValidationError(f"no such .bench file: {path}")
        return cls(kind="bench", name=path.stem, path=str(path), seed=seed)

    @classmethod
    def random(cls, n_gates, n_inputs, n_outputs, seed=0, name="", **kwargs):
        params = dict(kwargs, n_gates=int(n_gates), n_inputs=int(n_inputs),
                      n_outputs=int(n_outputs))
        return cls(kind="random", name=name or f"rand{n_gates}", seed=seed,
                   params=_normalize_params(sorted(params.items())))

    @classmethod
    def from_spec(cls, spec, seed=0):
        """CLI convenience: a Table 1 name, a ``.bench`` path, or
        ``random:N`` — an N-gate synthetic netlist with up to 128
        primary inputs and outputs (large-netlist scale runs)."""
        from repro.circuit.iscas85 import ISCAS85_SPECS

        if spec in ISCAS85_SPECS:
            return cls.iscas85(spec, seed=seed)
        if spec.startswith("random:"):
            try:
                n_gates = int(spec.split(":", 1)[1])
            except ValueError:
                raise ValidationError(
                    f"bad random circuit spec {spec!r}: want random:<gates>")
            if n_gates < 1:
                raise ValidationError("random:<gates> needs gates >= 1")
            return cls.random(n_gates, min(128, n_gates), min(128, n_gates),
                              seed=seed)
        if pathlib.Path(spec).exists():
            return cls.bench(spec, seed=seed)
        raise ValidationError(
            f"unknown circuit {spec!r}: not a Table 1 name, not a "
            "random:<gates> spec, and no such file")

    # -- realization ------------------------------------------------------------

    @property
    def label(self):
        if self.name:
            return self.name
        if self.path:
            return pathlib.Path(self.path).stem
        # Directly-constructed random refs can carry no name at all;
        # fall back to a params digest so sweep shards and reports
        # never label rows with the empty string.
        return f"{self.kind}-{_content_hash(self.canonical_dict())[:8]}"

    def build(self):
        """Construct the referenced :class:`~repro.circuit.circuit.Circuit`."""
        if self.kind == "iscas85":
            from repro.circuit.iscas85 import iscas85_circuit

            return iscas85_circuit(self.name, seed=self.seed or None)
        if self.kind == "bench":
            from repro.circuit.parser import load_bench

            return load_bench(self.path, seed=self.seed)
        from repro.circuit.generators import random_circuit

        return random_circuit(seed=self.seed, name=self.name,
                              **dict(self.params))

    def fingerprint(self):
        """SHA-256 over the *built* circuit's canonical form.

        Hashing the realized graph (not just this reference) means a
        fingerprint check catches generator or parser behavior changes,
        and ``.bench`` files edited on disk without their path changing.
        """
        return circuit_fingerprint(self.build())

    def canonical_dict(self):
        return {
            "kind": self.kind, "name": self.name, "path": self.path,
            "seed": int(self.seed),
            "params": [[key, list(value) if isinstance(value, tuple) else value]
                       for key, value in self.params],
        }

    @classmethod
    def from_dict(cls, data):
        return cls(kind=data["kind"], name=data["name"], path=data["path"],
                   seed=int(data["seed"]),
                   params=_normalize_params(data["params"]))


@dataclasses.dataclass(frozen=True)
class FlowConfig:
    """Every knob of the two-stage flow as one immutable value.

    Mirrors the :class:`~repro.core.flow.NoiseAwareSizingFlow` constructor
    (modes stored by value string so the config is trivially JSON-able)
    plus the OGWS solver options the CLI exposes.
    """

    ordering: str = "woss"
    miller_mode: str = "similarity"
    coupling_order: int = 2
    delay_mode: str = "own"
    n_patterns: int = 256
    seed: int = 0
    delay_slack: float = 1.1
    noise_fraction: float = 0.1
    power_fraction: float = 0.2
    max_iterations: int = 200
    tolerance: float = 0.01
    update: str = "multiplicative"

    def __post_init__(self):
        if self.ordering not in ORDERING_NAMES:
            raise ValidationError(
                f"unknown ordering {self.ordering!r}; "
                f"choose from {sorted(ORDERING_NAMES)}")
        # Modes are stored as their value strings, so an enum and its
        # string spelling make one config (equal, hashed alike).
        for field, mode in (("miller_mode", MillerMode),
                            ("delay_mode", CouplingDelayMode)):
            try:
                value = mode(getattr(self, field)).value
            except ValueError:
                raise ValidationError(
                    f"unknown {field} {getattr(self, field)!r}; choose "
                    f"from {[m.value for m in mode]}") from None
            object.__setattr__(self, field, value)
        if self.update not in _UPDATE_NAMES:
            raise ValidationError(
                f"unknown update {self.update!r}; choose from {_UPDATE_NAMES}")
        for field in ("coupling_order", "n_patterns", "max_iterations"):
            if _integral(f"FlowConfig.{field}", getattr(self, field)) < 1:
                raise ValidationError(f"FlowConfig.{field} must be >= 1")
        _integral("FlowConfig.seed", self.seed)
        for field in ("delay_slack", "noise_fraction", "power_fraction",
                      "tolerance"):
            if _finite(f"FlowConfig.{field}", getattr(self, field)) <= 0:
                raise ValidationError(f"FlowConfig.{field} must be positive")

    def replace(self, **changes):
        return dataclasses.replace(self, **changes)

    @property
    def bound_factors(self):
        return (self.delay_slack, self.noise_fraction, self.power_fraction)

    @property
    def optimizer_options(self):
        return {"max_iterations": self.max_iterations,
                "tolerance": self.tolerance, "update": self.update}

    def canonical_dict(self):
        data = dataclasses.asdict(self)
        data["coupling_order"] = int(data["coupling_order"])
        data["n_patterns"] = int(data["n_patterns"])
        data["max_iterations"] = int(data["max_iterations"])
        data["seed"] = int(data["seed"])
        for field in ("delay_slack", "noise_fraction", "power_fraction",
                      "tolerance"):
            data[field] = float(data[field])
        return data

    def canonical_json(self):
        return _canonical_json(self.canonical_dict())

    @classmethod
    def from_dict(cls, data):
        return cls(**data)


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One execution unit: a circuit under one flow configuration."""

    circuit: CircuitRef
    config: FlowConfig

    @property
    def label(self):
        """Human-readable identity, e.g. ``c432/woss/own/similarity``."""
        return "/".join((self.circuit.label, self.config.ordering,
                         self.config.delay_mode, self.config.miller_mode))

    @property
    def seed(self):
        """Deterministic per-scenario seed.

        Derived from the base seed and the *circuit* only — deliberately
        not from the flow knobs — so scenarios that ablate a single knob
        (delay mode, ordering, bounds) on the same circuit share their
        simulation patterns and random streams, and differences in the
        records are attributable to the knob under study.  Identical
        across serial and parallel execution and across processes.
        """
        return stable_seed("scenario", self.config.seed,
                           _canonical_json(self.circuit.canonical_dict()))

    def canonical_dict(self):
        return {"circuit": self.circuit.canonical_dict(),
                "config": self.config.canonical_dict()}

    def canonical_json(self):
        return _canonical_json(self.canonical_dict())

    def content_hash(self):
        """Hash of the scenario spec alone (no circuit realization).

        Computed once per instance and kept outside the dataclass fields,
        so equality, ``hash()`` and ``dataclasses.replace`` never see it;
        pickles leave it out (:meth:`__getstate__`).
        """
        digest = self.__dict__.get("_content_hash")
        if digest is None:
            digest = _content_hash(self.canonical_dict())
            object.__setattr__(self, "_content_hash", digest)
        return digest

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_content_hash", None)
        return state

    @classmethod
    def from_dict(cls, data):
        return cls(circuit=CircuitRef.from_dict(data["circuit"]),
                   config=FlowConfig.from_dict(data["config"]))


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """Cross product of circuits × flow-knob axes.

    Axes not being swept stay on ``base``; each listed axis overrides the
    corresponding :class:`FlowConfig` field.  Expansion order is the
    nested-loop order of the fields below (circuits outermost), so record
    streams are stable across runs and executors.
    """

    circuits: tuple
    orderings: tuple = ("woss",)
    miller_modes: tuple = ("similarity",)
    delay_modes: tuple = ("own",)
    coupling_orders: tuple = (2,)
    delay_slacks: tuple = (1.1,)
    noise_fractions: tuple = (0.1,)
    power_fractions: tuple = (0.2,)
    base: FlowConfig = FlowConfig()

    def __post_init__(self):
        if not self.circuits:
            raise ValidationError("SweepSpec needs at least one circuit")
        for field in ("orderings", "miller_modes", "delay_modes",
                      "coupling_orders", "delay_slacks", "noise_fractions",
                      "power_fractions"):
            if not getattr(self, field):
                raise ValidationError(f"SweepSpec.{field} must be non-empty")

    def scenarios(self):
        """Expand into the full scenario list (validates every combination)."""
        out = []
        for circuit in self.circuits:
            for ordering in self.orderings:
                for miller in self.miller_modes:
                    for delay_mode in self.delay_modes:
                        for order_k in self.coupling_orders:
                            for slack in self.delay_slacks:
                                for noise in self.noise_fractions:
                                    for power in self.power_fractions:
                                        config = self.base.replace(
                                            ordering=ordering,
                                            miller_mode=miller,
                                            delay_mode=delay_mode,
                                            coupling_order=order_k,
                                            delay_slack=slack,
                                            noise_fraction=noise,
                                            power_fraction=power,
                                        )
                                        out.append(Scenario(circuit, config))
        return out

    def __len__(self):
        return (len(self.circuits) * len(self.orderings)
                * len(self.miller_modes) * len(self.delay_modes)
                * len(self.coupling_orders) * len(self.delay_slacks)
                * len(self.noise_fractions) * len(self.power_fractions))

    # -- serialization ----------------------------------------------------------

    def canonical_dict(self):
        """JSON-ready canonical form — the HTTP submission wire schema.

        The service tier hashes this to derive a sweep's idempotency
        key, so two submissions describing the same sweep — however
        they spelled their circuits — collapse onto one queue.
        """
        return {
            "circuits": [c.canonical_dict() for c in self.circuits],
            "orderings": [str(o) for o in self.orderings],
            "miller_modes": [str(m) for m in self.miller_modes],
            "delay_modes": [str(m) for m in self.delay_modes],
            "coupling_orders": [int(k) for k in self.coupling_orders],
            "delay_slacks": [float(s) for s in self.delay_slacks],
            "noise_fractions": [float(f) for f in self.noise_fractions],
            "power_fractions": [float(f) for f in self.power_fractions],
            "base": self.base.canonical_dict(),
        }

    def canonical_json(self):
        return _canonical_json(self.canonical_dict())

    def content_hash(self):
        """Hash of the full sweep spec (the service's idempotency key)."""
        return _content_hash(self.canonical_dict())

    @classmethod
    def from_dict(cls, data):
        """Rebuild from :meth:`canonical_dict` (validates every field).

        Lenient where it is safe: axis keys may be omitted (defaults
        apply), circuits may be canonical dicts *or* CLI-style spec
        strings (``c432``, ``random:N``, a ``.bench`` path — see
        :meth:`CircuitRef.from_spec`), and ``base`` may be a partial
        :class:`FlowConfig` dict.  Junk raises
        :class:`~repro.utils.errors.ValidationError`.
        """
        if not isinstance(data, dict):
            raise ValidationError("SweepSpec document must be a JSON object")
        known = {"circuits", "orderings", "miller_modes", "delay_modes",
                 "coupling_orders", "delay_slacks", "noise_fractions",
                 "power_fractions", "base"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValidationError(
                f"unknown SweepSpec fields: {', '.join(unknown)} "
                f"(accepted: {', '.join(sorted(known))})")
        raw_circuits = data.get("circuits")
        if not isinstance(raw_circuits, (list, tuple)) or not raw_circuits:
            raise ValidationError(
                "SweepSpec document needs a non-empty 'circuits' list")
        circuits = []
        for item in raw_circuits:
            if isinstance(item, str):
                circuits.append(CircuitRef.from_spec(item))
            elif isinstance(item, dict):
                try:
                    circuits.append(CircuitRef.from_dict(item))
                except (KeyError, TypeError) as error:
                    raise ValidationError(
                        f"bad circuit entry {item!r}: {error}") from None
            else:
                raise ValidationError(
                    f"circuit entries must be spec strings or canonical "
                    f"dicts, got {type(item).__name__}")
        base = data.get("base", {})
        if isinstance(base, dict):
            try:
                base = FlowConfig(**base)
            except TypeError as error:
                raise ValidationError(f"bad base config: {error}") from None
        elif not isinstance(base, FlowConfig):
            raise ValidationError("'base' must be a FlowConfig object/dict")
        kwargs = {"circuits": tuple(circuits), "base": base}
        for field, cast in (("orderings", str), ("miller_modes", str),
                            ("delay_modes", str),
                            ("coupling_orders",
                             lambda v: _integral("SweepSpec.coupling_orders",
                                                 v)),
                            ("delay_slacks", float),
                            ("noise_fractions", float),
                            ("power_fractions", float)):
            if field not in data:
                continue
            values = data[field]
            if not isinstance(values, (list, tuple)):
                raise ValidationError(f"SweepSpec.{field} must be a list")
            try:
                kwargs[field] = tuple(cast(v) for v in values)
            except (TypeError, ValueError) as error:
                raise ValidationError(
                    f"bad SweepSpec.{field} value: {error}") from None
        spec = cls(**kwargs)
        spec.scenarios()    # validate every combination up front
        return spec
