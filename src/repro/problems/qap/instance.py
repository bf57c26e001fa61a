"""QAP instances: QAPLIB format I/O and a synthetic generator.

The quadratic assignment problem places ``n`` facilities on ``n`` locations;
a solution is a permutation ``p`` (facility → location) and its cost is

.. math:: C(p) = \\sum_{i,j} F_{ij} \\cdot D_{p(i), p(j)}

with ``F`` the flow between facilities and ``D`` the distance between
locations.  This is the classic second workload for parallel tabu search
(Taillard's robust taboo search; Bukata et al.'s CUDA swap-delta kernels),
and its elementary move is the same two-item swap the placement engine is
built on — which is exactly why it makes a good conformance proof for the
domain-agnostic core.

Instances come from two sources:

* :func:`read_qaplib` / :func:`parse_qaplib` read the QAPLIB text format
  (``n`` followed by the two ``n x n`` matrices, whitespace separated; the
  first matrix plays the flow role ``A``, the second the distance role ``B``
  in the QAPLIB objective ``sum a_ij * b_{p(i) p(j)}``);
* :func:`generate_qap` builds deterministic synthetic instances (integer
  flows with controllable density, Manhattan distances of a square grid of
  locations), addressable by the names ``rand<n>`` / ``rand<n>-s<seed>``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from ..._rng import make_rng
from ...errors import ReproError

__all__ = [
    "QAPInstance",
    "parse_qaplib",
    "read_qaplib",
    "format_qaplib",
    "write_qaplib",
    "generate_qap",
    "load_qap",
    "synthetic_instance_names",
]


@dataclass(frozen=True)
class QAPInstance:
    """One immutable QAP instance: flow and distance matrices."""

    name: str
    #: ``(n, n)`` flow between facilities (float64, non-negative).
    flow: np.ndarray
    #: ``(n, n)`` distance between locations (float64, non-negative).
    distance: np.ndarray

    def __post_init__(self) -> None:
        flow = np.asarray(self.flow, dtype=np.float64)
        distance = np.asarray(self.distance, dtype=np.float64)
        if flow.ndim != 2 or flow.shape[0] != flow.shape[1]:
            raise ReproError(f"flow matrix must be square, got {flow.shape}")
        if distance.shape != flow.shape:
            raise ReproError(
                f"distance matrix shape {distance.shape} does not match flow {flow.shape}"
            )
        if flow.shape[0] < 2:
            raise ReproError("QAP instance needs at least two facilities")
        object.__setattr__(self, "flow", flow)
        object.__setattr__(self, "distance", distance)
        object.__setattr__(
            self,
            "_symmetric",
            bool(
                np.array_equal(flow, flow.T)
                and np.array_equal(distance, distance.T)
            ),
        )

    @property
    def n(self) -> int:
        """Number of facilities (== number of locations)."""
        return int(self.flow.shape[0])

    @property
    def is_symmetric(self) -> bool:
        """Whether both matrices are symmetric (many QAPLIB instances are).

        Checked once at construction; the evaluator's delta kernel drops the
        mirrored column sums for symmetric instances (half the gathers).
        """
        return self._symmetric

    def cost_of(self, assignment: np.ndarray) -> float:
        """From-scratch cost of a facility→location permutation (O(n^2)).

        Two ``take`` gathers build the same C-ordered ``B[p][:, p]`` as
        ``np.ix_`` fancy indexing, so the sum is bit-identical, at about
        half the cost (this runs on every CLW delta adopt).
        """
        p = np.asarray(assignment, dtype=np.int64)
        return float(np.sum(self.flow * self.distance.take(p, 0).take(p, 1)))


# ---------------------------------------------------------------------- #
# QAPLIB text format
# ---------------------------------------------------------------------- #
def parse_qaplib(text: str, *, name: str = "qaplib") -> QAPInstance:
    """Parse the QAPLIB text format: ``n`` then two ``n x n`` matrices.

    Token-based (line breaks are insignificant, as in the real archive
    files).  The first matrix is read as the flow ``A`` and the second as
    the distance ``B`` of the QAPLIB objective ``sum a_ij * b_{p(i) p(j)}``.
    """
    tokens = text.split()
    if not tokens:
        raise ReproError("empty QAPLIB input")
    try:
        values = [float(token) for token in tokens]
    except ValueError as exc:
        raise ReproError(f"non-numeric token in QAPLIB input: {exc}") from None
    n = int(values[0])
    if n < 2 or n != values[0]:
        raise ReproError(f"invalid QAPLIB size {values[0]!r}")
    expected = 1 + 2 * n * n
    if len(values) != expected:
        raise ReproError(
            f"QAPLIB input for n={n} needs exactly {expected} numbers, got {len(values)}"
        )
    body = np.asarray(values[1:], dtype=np.float64)
    flow = body[: n * n].reshape(n, n)
    distance = body[n * n :].reshape(n, n)
    return QAPInstance(name=name, flow=flow, distance=distance)


def read_qaplib(path: Union[str, Path]) -> QAPInstance:
    """Read a QAPLIB ``.dat`` file from disk."""
    path = Path(path)
    return parse_qaplib(path.read_text(), name=path.stem)


def format_qaplib(instance: QAPInstance) -> str:
    """Render an instance in QAPLIB text format (inverse of :func:`parse_qaplib`)."""

    def matrix(values: np.ndarray) -> str:
        return "\n".join(
            " ".join(_format_number(v) for v in row) for row in values.tolist()
        )

    return f"{instance.n}\n\n{matrix(instance.flow)}\n\n{matrix(instance.distance)}\n"


def _format_number(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def write_qaplib(instance: QAPInstance, path: Union[str, Path]) -> None:
    """Write an instance to disk in QAPLIB text format."""
    Path(path).write_text(format_qaplib(instance))


# ---------------------------------------------------------------------- #
# synthetic instances
# ---------------------------------------------------------------------- #
def generate_qap(
    n: int,
    *,
    seed: int = 0,
    flow_density: float = 0.5,
    max_flow: int = 9,
    symmetric: bool = True,
    name: Optional[str] = None,
) -> QAPInstance:
    """Deterministic synthetic instance: grid distances, sparse integer flows.

    Locations are the first ``n`` points of a ``ceil(sqrt(n))``-wide square
    grid walked row-major, and ``D`` is their Manhattan distance — a metric,
    like the real layout-inspired QAPLIB families.  Flows are integers in
    ``[1, max_flow]`` present with probability ``flow_density`` (diagonal
    zero), symmetrised unless ``symmetric=False`` — asymmetric instances
    exercise the general delta formula.
    """
    if n < 2:
        raise ReproError(f"need at least 2 facilities, got {n}")
    if not (0.0 < flow_density <= 1.0):
        raise ReproError(f"flow_density must be in (0, 1], got {flow_density}")
    if max_flow < 1:
        raise ReproError(f"max_flow must be >= 1, got {max_flow}")
    rng = make_rng(seed, "qap-generate", n, int(symmetric))
    flow = rng.integers(1, max_flow + 1, size=(n, n)).astype(np.float64)
    flow *= rng.random((n, n)) < flow_density
    np.fill_diagonal(flow, 0.0)
    if symmetric:
        upper = np.triu(flow, 1)
        flow = upper + upper.T
    side = math.ceil(math.sqrt(n))
    index = np.arange(n)
    x = index % side
    y = index // side
    distance = (
        np.abs(x[:, None] - x[None, :]) + np.abs(y[:, None] - y[None, :])
    ).astype(np.float64)
    if name is None:
        name = f"rand{n}" if seed == 0 else f"rand{n}-s{seed}"
    return QAPInstance(name=name, flow=flow, distance=distance)


#: Bundled synthetic instance names (all deterministic; any ``rand<n>`` works).
_SYNTHETIC = ("rand32", "rand64", "rand100")
_SYNTHETIC_RE = re.compile(r"^rand(\d+)(?:-s(\d+))?$")


def synthetic_instance_names() -> List[str]:
    """Names of the documented synthetic instances (any ``rand<n>`` resolves)."""
    return list(_SYNTHETIC)


def load_qap(spec: Union[str, Path, QAPInstance]) -> QAPInstance:
    """Resolve an instance spec: a ``rand<n>[-s<seed>]`` name or a QAPLIB file.

    Passing an already-built :class:`QAPInstance` returns it unchanged (the
    registry's ``build_problem`` accepts both forms, like the placement
    domain accepts a ``Netlist``).
    """
    if isinstance(spec, QAPInstance):
        return spec
    text = str(spec)
    match = _SYNTHETIC_RE.match(text)
    if match:
        n = int(match.group(1))
        seed = int(match.group(2) or 0)
        return generate_qap(n, seed=seed)
    path = Path(text)
    if path.suffix == ".dat" or path.exists():
        if not path.exists():
            raise ReproError(f"QAPLIB file not found: {path}")
        return read_qaplib(path)
    raise ReproError(
        f"unknown QAP instance {text!r}; use 'rand<n>[-s<seed>]' "
        f"(e.g. {', '.join(_SYNTHETIC)}) or a path to a QAPLIB .dat file"
    )
