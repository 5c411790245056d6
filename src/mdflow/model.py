"""Coefficient fields, scaling, and the built-in test cases.

Coefficients live cell-by-cell on the grid: a per-axis permeability, one
support table for all terminals (holding the scaled transfer
coefficient per terminal and cell), and source densities.  Case
specifications are declarative so the same case can be instantiated on
any mesh of a refinement sequence.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .geometry import (
    CartesianGrid,
    Forest,
    SupportTable,
    TransferSpec,
    build_forest,
    build_support,
    dirichlet_root,
    forest_from_text,
    forest_to_text,
    interior,
    radial_cell_average,
    terminal,
)


# Finest sub-cell count per axis near the ring source's kink circles.
SOURCE_SUBDIV = 64


@dataclass(frozen=True)
class CoefficientField:
    """All material data and sources for one grid/forest pair.

    kD has shape (n_cells, dim); the entry for the last axis of a 4D
    grid is the inter-compartment ("perfusion") coefficient.  A case's
    constant kD is one read-only row broadcast over the cells.  supports
    is one table for all terminals, with exactly one support per
    terminal node of the forest, its rows in any order.  rD is a
    per-cell source density (quadrature average); a case without a
    source has one read-only zero broadcast over the cells.  rN maps node ids of
    non-Dirichlet nodes to point sources; missing ids mean zero.
    """

    kD: np.ndarray
    supports: SupportTable
    rD: np.ndarray
    rN: dict[int, float] = field(default_factory=dict)

    def validate(self, grid: CartesianGrid, forest: Forest):
        if self.kD.shape != (grid.n_cells, grid.dim):
            raise ValueError("kD must have shape (n_cells, dim)")
        if not np.all((self.kD > 0) & (self.kD < np.inf)):  # NaN fails it
            raise ValueError("kD must be positive and finite on active cells")
        if self.rD.shape != (grid.n_cells,):
            raise ValueError("rD must have one value per active cell")
        ids = sorted(n.id for n in forest.terminals)
        if sorted(self.supports.terminal_ids) != ids:
            raise ValueError("need exactly one support per terminal node")
        stray = sorted(set(self.rN) - {n.id for n in forest.free_nodes})
        if stray:
            raise ValueError(
                f"rN names node {stray[0]}, which is not a non-Dirichlet "
                "node of the forest"
            )
        return self


@dataclass(frozen=True)
class RadialParams:
    """Parameters of the radially symmetric closed-form configuration."""

    r0: float
    r1: float
    r2: float
    r3: float
    kT0: float = 1.0
    kD: float = 1.0
    kN: float = 1.0
    rD0: float = 1.0
    pN0: float = 0.0

    def __post_init__(self):
        if not (0 < self.r0 <= self.r1 <= self.r2 < self.r3):
            raise ValueError(
                f"radii must satisfy 0 < r0 <= r1 <= r2 < r3, got "
                f"({self.r0}, {self.r1}, {self.r2}, {self.r3})"
            )
        if not all(map(math.isfinite, (self.r3, self.rD0, self.pN0))):
            raise ValueError(f"need finite r3, rD0 and pN0, got {self}")
        if not all(0 < k < math.inf for k in (self.kT0, self.kD, self.kN)):
            raise ValueError(f"need finite kT0, kD and kN > 0, got {self}")
        square = float(self.r3) * float(self.r3)  # overflows to inf, where ** raises
        if not square * square < math.inf:
            raise ValueError(f"r3 = {self.r3} is too large: the closed form takes r3^4")


def ring_profile(r, rD0: float, r2: float, r3: float):
    """Ring source density rD0 * (r - r2)^+ * (r3 - r)^+ at radius r."""
    return rD0 * np.maximum(r - r2, 0.0) * np.maximum(r3 - r, 0.0)


@dataclass(frozen=True)
class RingSourceSpec:
    """Radial source density `ring_profile` around a center."""

    rD0: float
    r2: float
    r3: float
    center: tuple[float, ...]


@dataclass(frozen=True)
class CaseSpec:
    """Declarative description of a runnable case.

    ``refine_axes`` marks the axes whose cell count equals the mesh
    parameter m; other axes keep ``fixed_cells``.  ``reference`` is
    ('series', RadialParams), ('finegrid', resolution), or ('none',).
    """

    name: str
    dim: int
    origin: tuple[float, ...]
    extent: tuple[float, ...]
    refine_axes: tuple[bool, ...]
    fixed_cells: tuple[int, ...]
    forest: Forest
    kD: tuple[float, ...]
    transfers: tuple[TransferSpec, ...]
    source: RingSourceSpec | None
    rN: dict[int, float] = field(default_factory=dict)
    reference: tuple = ("none",)

    def grid(self, m: int) -> CartesianGrid:
        cells = tuple(
            m if ref else fix
            for ref, fix in zip(self.refine_axes, self.fixed_cells)
        )
        return CartesianGrid(cells, extent=self.extent, origin=self.origin)

    def coefficients(self, grid: CartesianGrid) -> CoefficientField:
        # one row of values, read-only, seen by every cell
        kD = np.broadcast_to(np.asarray(self.kD, dtype=float), (grid.n_cells, grid.dim))
        supports = build_support(grid, self.transfers)
        if self.source is None:
            rD = np.broadcast_to(0.0, grid.n_cells)  # read-only, as kD
        else:
            # refine only the cells cut by the two source kink circles, and
            # there only towards the circles; every other cell keeps the
            # base rule, whose fourth-order error within the ring is the
            # intended accuracy signature (a higher-order rule there drives
            # the node-pressure error to round-off and its rate below the
            # criterion-1 band)
            s = self.source
            rD = radial_cell_average(
                grid,
                np.asarray(s.center, dtype=float),
                lambda r: ring_profile(r, s.rD0, s.r2, s.r3),
                breaks=(s.r2, s.r3),
                subdiv=SOURCE_SUBDIV,
            )
        return CoefficientField(
            kD=kD, supports=supports, rD=rD, rN=dict(self.rN)
        ).validate(grid, self.forest)


def case1(variant: str = "A") -> CaseSpec:
    """Two-node tree over the unit square centered at the origin.

    Variant A uses a transfer coefficient that degenerates smoothly at
    the support edge (r0 = 0.1 < r1 = 0.2); variant B is identical
    except r0 = 0.2, a sharp cutoff.  A ring source between r2 = 0.3 and
    r3 = 0.4 drives the flow; all material constants are 1 and the root
    pressure is 0.  The closed-form radial solution is the reference.
    """
    variant = variant.upper()
    if variant not in ("A", "B"):
        raise ValueError(f"variant must be 'A' or 'B', got {variant!r}")
    r0 = 0.1 if variant == "A" else 0.2
    params = RadialParams(r0=r0, r1=0.2, r2=0.3, r3=0.4)
    forest = build_forest(
        [dirichlet_root(0, params.pN0), terminal(1, (0.0, 0.0))],
        [(0, 1, params.kN)],
    )
    return CaseSpec(
        name=f"case1{variant.lower()}",
        dim=2,
        origin=(-0.5, -0.5),
        extent=(1.0, 1.0),
        refine_axes=(True, True),
        fixed_cells=(0, 0),
        forest=forest,
        kD=(params.kD, params.kD),
        transfers=(
            TransferSpec(1, (0.0, 0.0), params.r0, params.r1, params.kT0),
        ),
        source=RingSourceSpec(params.rD0, params.r2, params.r3, (0.0, 0.0)),
        reference=("series", params),
    )


# Anchor points of the four terminals in the two-compartment case.
CASE2_ARTERIAL_ANCHORS = ((0.43, 0.25, 0.5), (0.37, 0.75, 0.5))
CASE2_VENOUS_ANCHORS = ((0.63, 0.25, 0.5), (0.57, 0.75, 0.5))


def case2(reference_resolution: int = 64) -> CaseSpec:
    """Two Y-shaped trees coupled to the unit 4-cube.

    The fourth axis carries exactly two cells and represents the two
    compartments; flux along it is the "perfusion" flux.  Arterial
    terminals couple to the lower compartment (root pressure 1), venous
    terminals to the upper (root pressure 0).  The radial transfer
    profile is the case-1A one (r0 = 0.1, r1 = 0.2) measured in the
    three spatial coordinates.  No volume or node sources; the reference
    is a fine-grid solve.
    """
    nodes = [
        dirichlet_root(0, 1.0),
        interior(1),
        terminal(2, CASE2_ARTERIAL_ANCHORS[0]),
        terminal(3, CASE2_ARTERIAL_ANCHORS[1]),
        dirichlet_root(4, 0.0),
        interior(5),
        terminal(6, CASE2_VENOUS_ANCHORS[0]),
        terminal(7, CASE2_VENOUS_ANCHORS[1]),
    ]
    edges = [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0),
             (4, 5, 1.0), (5, 6, 1.0), (5, 7, 1.0)]
    forest = build_forest(nodes, edges)
    transfers = tuple(
        TransferSpec(
            tid, anchor, 0.1, 0.2, 1.0,
            radial_axes=(0, 1, 2), compartment=(3, side),
        )
        for tid, anchor, side in [
            (2, CASE2_ARTERIAL_ANCHORS[0], "lower"),
            (3, CASE2_ARTERIAL_ANCHORS[1], "lower"),
            (6, CASE2_VENOUS_ANCHORS[0], "upper"),
            (7, CASE2_VENOUS_ANCHORS[1], "upper"),
        ]
    )
    return CaseSpec(
        name="case2",
        dim=4,
        origin=(0.0, 0.0, 0.0, 0.0),
        extent=(1.0, 1.0, 1.0, 1.0),
        refine_axes=(True, True, True, False),
        fixed_cells=(0, 0, 0, 2),
        forest=forest,
        kD=(1.0, 1.0, 1.0, 1.0),
        transfers=transfers,
        source=None,
        reference=("finegrid", int(reference_resolution)),
    )


def builtin_case(name: str, **kwargs) -> CaseSpec:
    name = name.lower()
    if name in ("case1a", "1a"):
        return case1("A")
    if name in ("case1b", "1b"):
        return case1("B")
    if name in ("case2", "2"):
        return case2(**kwargs)
    raise ValueError(f"unknown case {name!r}")


# ---------------------------------------------------------------------------
# Plain-text case configuration (key = value lines in [sections])
#
# Each value is stated once: a transfer takes its terminal's anchor from
# the `node <id> terminal x y ...` line of [forest], and a series
# reference takes its RadialParams from the case itself.
# ---------------------------------------------------------------------------

def _seq(parse, show=repr):
    """(write, read) of a comma-separated tuple."""
    return (lambda v: ", ".join(show(x) for x in v),
            lambda s: tuple(parse(x) for x in s.replace(",", " ").split()))


def _refine_flag(s: str) -> bool:
    if s not in ("0", "1"):
        raise ValueError(f"entries are 0 or 1, got {s!r}")
    return s == "1"


def _compartment(s: str):
    axis, _, side = s.partition(":")
    return int(axis), side.strip()


def _node_value(s: str):
    node, found, value = s.partition(":")
    if not found:
        raise ValueError(f"expected 'node: value', got {s!r}")
    return int(node), float(value)


# (write, read) of each field of the [grid], transfer and source records,
# of an rN entry and of a finegrid reference's resolution
_FORMATS = {
    **dict.fromkeys(("dim", "terminal_id", "resolution"), (repr, int)),
    "rN": (lambda nv: f"{nv[0]}: {nv[1]!r}", _node_value),
    "fixed_cells": _seq(int),
    "radial_axes": _seq(int),
    "refine_axes": _seq(_refine_flag, show=lambda b: repr(int(b))),
    "compartment": (lambda c: f"{c[0]}:{c[1]}", _compartment),
    **dict.fromkeys(("origin", "extent", "kD", "center"), _seq(float)),
    **dict.fromkeys(("r0", "r1", "kT0", "rD0", "r2", "r3"), (repr, float)),
}
_GRID = ("dim", "origin", "extent", "refine_axes", "fixed_cells")
_SECTIONS = ("case", "grid", "forest", "coefficients", "reference")


def _read(key: str, value: str, where: str):
    """_FORMATS' reading of one value, an error naming its section and key."""
    try:
        return _FORMATS[key][1](value)
    except ValueError as e:
        raise ValueError(f"{where} {key}: {e}") from None


def _write_fields(obj, omit=()) -> str:
    """'field: value; ...' over the fields of a dataclass that are set."""
    return "; ".join(
        f"{f.name}: {_FORMATS[f.name][0](value)}"
        for f in fields(obj)
        if f.name not in omit and (value := getattr(obj, f.name)) is not None
    )


def _series_params(spec: CaseSpec) -> RadialParams:
    """The radial parameters of the case, which its series reference takes.

    The closed form holds on a 2D grid for one terminal fed by one edge
    from one Dirichlet root, with isotropic kD and a ring source centred
    on the transfer anchor.
    """
    roots, source = spec.forest.dirichlet_roots, spec.source
    if (spec.dim != 2 or len(spec.transfers) != 1 or source is None
            or len(spec.forest.edges) != 1 or len(roots) != 1 or len(set(spec.kD)) != 1):
        raise ValueError(
            "a series reference needs a 2D grid, one transfer, one edge, one "
            "Dirichlet root, a source and isotropic kD"
        )
    (t,) = spec.transfers
    if source.center != t.anchor:
        raise ValueError(
            f"series reference needs the source centre {source.center} "
            f"at the transfer anchor {t.anchor}"
        )
    return RadialParams(r0=t.r0, r1=t.r1, r2=source.r2, r3=source.r3, kT0=t.kT0,
                        kD=spec.kD[0], kN=spec.forest.edges[0].k, rD0=source.rD0,
                        pN0=roots[0].value)


def case_to_text(spec: CaseSpec) -> str:
    """Serialize a CaseSpec to the documented key = value format.

    Raises ValueError on a spec that would not read back to itself: a
    transfer anchored away from its terminal, or a series reference
    whose parameters are not the case's own.
    """
    anchors = {n.id: n.anchor for n in spec.forest.terminals}
    for t in spec.transfers:
        if tuple(t.anchor) != anchors.get(t.terminal_id):
            raise ValueError(
                f"transfer {t.terminal_id} is anchored at {tuple(t.anchor)}, "
                f"its terminal in the forest at {anchors.get(t.terminal_id)}"
            )
    kind = spec.reference[0]
    if kind == "series" and (implied := _series_params(spec)) != spec.reference[1]:
        raise ValueError(
            f"series reference {spec.reference[1]} is not the case's own {implied}"
        )
    out = ["[case]", f"name = {spec.name}", "", "[grid]"]
    out += [f"{k} = {_FORMATS[k][0](getattr(spec, k))}" for k in _GRID]
    out += ["", "[forest]", *forest_to_text(spec.forest).rstrip("\n").splitlines()]
    out += ["", "[coefficients]", f"kD = {_FORMATS['kD'][0](spec.kD)}"]
    out += [
        "transfer = " + _write_fields(t, ("anchor",)).removeprefix("terminal_id: ")
        for t in spec.transfers
    ]
    if spec.source is not None:
        out.append(f"source = {_write_fields(spec.source)}")
    out += [f"rN = {_FORMATS['rN'][0](item)}" for item in sorted(spec.rN.items())]
    out += ["", "[reference]", f"kind = {kind}"]
    if kind == "finegrid":
        out.append(f"resolution = {_FORMATS['resolution'][0](spec.reference[1])}")
    return "\n".join(out) + "\n"


def _parse_kv(line: str, sep: str = "="):
    key, found, value = line.partition(sep)
    if not found:
        raise ValueError(f"expected 'key {sep} value', got {line!r}")
    return key.strip(), value.strip()


def _record(items, where: str, names, required=(), sep: str = "=") -> dict[str, str]:
    """The 'key = value' items of one record; each key known and given once."""
    out = {}
    for key, value in (_parse_kv(item, sep) for item in items):
        if key not in names:
            raise ValueError(f"unknown key {key!r} in {where}")
        if key in out:
            raise ValueError(f"repeated key {key!r} in {where}")
        out[key] = value
    for key in required:
        if key not in out:
            raise ValueError(f"missing key {key!r} in {where}")
    return out


def _read_fields(value: str, where: str, cls, omit=()) -> dict:
    """Parse 'field: value; ...' into the fields of dataclass cls, less omit."""
    names = [f.name for f in fields(cls) if f.name not in omit]
    required = [f.name for f in fields(cls) if f.default is MISSING and f.name in names]
    kv = _record(filter(str.strip, value.split(";")), where, names, required, ":")
    return {k: _read(k, v, where) for k, v in kv.items()}


def _require_dim(values, dim: int, where: str):
    if len(values) != dim:
        raise ValueError(f"{where} has {len(values)} entries for dim = {dim}")


def case_from_text(text: str) -> CaseSpec:
    """Parse the plain-text case configuration."""
    sections: dict[str, list[str]] = {}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in _SECTIONS or current in sections:
                raise ValueError(f"unknown or repeated section [{current}]")
            sections[current] = []
            continue
        if current is None:
            raise ValueError(f"content before first section: {raw!r}")
        sections[current].append(line)

    for required in ("case", "grid", "forest"):
        if required not in sections:
            raise ValueError(f"missing [{required}] section")

    name = _record(sections["case"], "[case]", ("name",)).get("name", "custom")
    kv = _record(sections["grid"], "[grid]", _GRID, _GRID)
    grid = {k: _read(k, v, "[grid]") for k, v in kv.items()}
    dim = grid.pop("dim")
    for key, value in grid.items():
        _require_dim(value, dim, f"[grid] {key}")

    forest = forest_from_text("\n".join(sections["forest"]))
    anchors = {n.id: n.anchor for n in forest.terminals}

    kD = None
    transfers = []
    source = None
    rN: dict[int, float] = {}
    for line in sections.get("coefficients", []):
        key, value = _parse_kv(line)
        if (key == "kD" and kD is not None) or (key == "source" and source is not None):
            raise ValueError(f"repeated key {key!r} in [coefficients]")
        if key == "kD":
            kD = _read("kD", value, "[coefficients]")
        elif key == "transfer":
            kv = _read_fields("terminal_id: " + value, "[coefficients] transfer",
                              TransferSpec, omit=("anchor",))
            if kv["terminal_id"] not in anchors:
                raise ValueError(
                    f"transfer names node {kv['terminal_id']}, which is no "
                    "terminal of [forest]"
                )
            transfers.append(TransferSpec(anchor=anchors[kv["terminal_id"]], **kv))
        elif key == "source":
            source = RingSourceSpec(
                **_read_fields(value, "[coefficients] source", RingSourceSpec)
            )
        elif key == "rN":
            nid, val = _read("rN", value, "[coefficients]")
            if nid in rN:
                raise ValueError(f"repeated key 'rN' for node {nid} in [coefficients]")
            rN[nid] = val
        else:
            raise ValueError(f"unknown coefficients key {key!r}")
    kD = (1.0,) * dim if kD is None else kD
    _require_dim(kD, dim, "[coefficients] kD")

    spec = CaseSpec(name=name, dim=dim, **grid, forest=forest, kD=kD,
                    transfers=tuple(transfers), source=source, rN=rN)
    lines = sections.get("reference", [])
    kind = _record(lines, "[reference]", ("kind", "resolution")).get("kind", "none")
    extra = {"series": (), "finegrid": ("resolution",), "none": ()}
    if kind not in extra:
        raise ValueError(f"unknown reference kind {kind!r}")
    ref = _record(lines, f"[reference] kind = {kind}", ("kind", *extra[kind]), extra[kind])
    if kind == "finegrid":
        resolution = _read("resolution", ref["resolution"], "[reference]")
        return replace(spec, reference=("finegrid", resolution))
    if kind == "series":
        return replace(spec, reference=("series", _series_params(spec)))
    return spec
