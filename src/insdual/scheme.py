"""Discrete operator for the dual variational inequality.

One backward time step solves, node by node on the compact state mesh,

    min( v_next[j] - v[j] + h_t * min_rho (A(rho) v + l(rho))[j],
         (B v)[j] ) = 0

where, for a candidate intensity multiplier rho >= 1, A(rho) collects,
inside one factor of the arrival intensity pi, the claim-jump difference
v[at jump(rho, s_j)] - v[j] and the upwinded drift (1 - rho) * s_j *
(1 - s_j) * Dv, plus the discount absorption r * v[j]; l(rho) is the
running income rate in compact coordinates, and B is the one-sided
monotonicity (obstacle) operator (v[j-1] - v[j]) / (s_j - s_{j-1}),
which has no row at the first node.

The jump value is interpolated linearly between the two bracketing mesh
nodes (snapping to the nearest node wastes up to half a cell of jump
distance while the drift compensator stays exact, which bends the solved
surface well below the true one). With rho >= 1 the drift coefficient
is never positive, so it always takes the backward difference, and the
first node, which has no lower neighbour, admits rho = 1 only. Every
off-diagonal coefficient is then nonnegative and every row of A(rho)
sums to r, so I - h_t * A(rho) is strictly diagonally dominant whenever
h_t * r < 1.

A candidate is admissible at a node only if its jump target, which never
lies below the node, stays under the top of the state hull (a clamped
projection would discard most of the jump difference and make extreme
candidates look spuriously cheap). rho = 1 is admissible at every
node, so the restricted search is never empty. The store carries an
income rate of +inf at every inadmissible pair, and that rate is its one
record of admissibility, which both of its readers read: in the
minimization such a pair scores +inf and never wins, with no mask
applied per evaluation, and the policy solve refuses a policy that puts
one at a continuation node.

OperatorTables holds the row of every admissible (node, candidate) pair
once, node-major, in a fixed-width row store under one CSR matrix built
once per store, where an inadmissible pair is an empty row: evaluating
all candidates is one sparse product over the admissible rows, and the
policy system of a sweep gathers one row per continuation node from the
same store.

The policy system eliminates its obstacle unknowns. An obstacle node
only copies its lower neighbour, so it equals its anchor, the largest
continuation node at or below it (the first node is always one), and
the column of every obstacle node folds onto its anchor's. The folded
continuation block keeps nonpositive off-diagonals and row sums
1 - h_t * r, so it is strictly diagonally dominant and SuperLU solves it
in natural order, with no fill-reducing column permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .grid import Grid
from .model import ModelParams, expand

__all__ = [
    "ControlSet",
    "make_control_set",
    "jump_target",
    "source_term",
    "OperatorTables",
    "build_tables",
    "operator_values",
    "obstacle_values",
    "solve_policy_system",
]

CONTROL_LOW = 1e-3
CONTROL_HIGH = 1e3
CONTROL_COUNT = 101


@dataclass(frozen=True)
class ControlSet:
    """Finite ladder of candidate intensity multipliers rho, finite and >= 1."""

    candidates: np.ndarray

    def __post_init__(self):
        cand = np.array(self.candidates, dtype=float)
        if cand.ndim != 1 or cand.size == 0:
            raise ValueError("scheme: control set must hold at least one candidate")
        bad = cand[~np.isfinite(cand)]
        if bad.size:
            raise ValueError(f"scheme: control candidates must be finite, got {bad[0]}")
        if np.any(np.diff(cand) <= 0.0):
            raise ValueError("scheme: control candidates must be strictly increasing")
        if cand[0] < 1.0:
            raise ValueError(f"scheme: control candidates must be >= 1, got {cand[0]}")
        cand.setflags(write=False)
        object.__setattr__(self, "candidates", cand)


def make_control_set(
    params: ModelParams, low: float = CONTROL_LOW, high: float = CONTROL_HIGH,
    count: int = CONTROL_COUNT,
) -> ControlSet:
    """Geometric candidate ladder plus the two structurally special values.

    The identity control rho = 1 (claims kept as they come) and the
    premium kink beta / (delta * pi_intensity), where the running income
    rate loses its positive part, are always inserted; candidates of the
    geometric ladder that collide with them within 1e-9 relative are
    dropped in their favour. Candidates below 1 are dropped too (``low``
    only sets the spacing above 1): the node's Hamiltonian has the
    rho-derivative pi y (v'(rho y) - v'(y) - delta 1{rho < kink}), which a
    convex v makes negative below 1, so no such candidate can win.
    """
    # by value, before geomspace turns an infinite end into NaN candidates
    if not 0.0 < low < high < np.inf:
        raise ValueError(
            f"scheme: need 0 < low < high, control candidates must be finite, "
            f"got [{low}, {high}]"
        )
    # 2.5 or NaN would reach geomspace, which refuses them without a name
    if not (isinstance(count, Integral) and count >= 2):
        raise ValueError(
            f"scheme: control count must be an integer >= 2, got {count!r}"
        )
    base = np.geomspace(low, high, count)
    special = [1.0]
    kink = params.beta / (params.delta * params.pi_intensity)
    if kink > 1.0 and not np.isclose(kink, 1.0, rtol=1e-9, atol=0.0):
        special.append(kink)
    special = np.asarray(special, dtype=float)
    fresh = base[~np.any(np.isclose(base[:, None], special[None, :], rtol=1e-9, atol=0.0), axis=1)]
    return ControlSet(np.unique(np.concatenate([fresh[fresh >= 1.0], special])))


def jump_target(state, rho):
    """Image of a compact state under y -> rho * y, in compact coordinates.

    Equals compactify(rho * expand(state)) = rho*s / (1 + s*(rho - 1)).
    """
    return rho * state / (1.0 + state * (rho - 1.0))


def source_term(params: ModelParams, state, rho):
    """Running income rate l(state, rho) in compact coordinates.

    expand(state) * (alpha - beta + (beta - rho*delta*pi_intensity)_+);
    the positive part is the premium refund of ceding above the kink.
    """
    surplus = params.alpha - params.beta + np.maximum(
        params.beta - rho * params.delta * params.pi_intensity, 0.0
    )
    return expand(state) * surplus


@dataclass(frozen=True)
class OperatorTables:
    """Every admissible stationary operator row for one grid, model and ladder.

    The store is node-major: the pair (node j, candidate k) is pair
    j*K + k. ``cols`` and ``weights`` hold one fixed-width row per
    admissible pair, in pair order, and nothing for an inadmissible one.
    Slot 0 of every row is its diagonal, so I - h_t A(rho) differs from
    -h_t A(rho) in slot 0 only; unused slots carry explicit zeros.
    ``matrix`` is the (m*K, m) CSR matrix over the same two arrays, in
    which an inadmissible pair is an empty row, so the stored row of an
    admissible pair is ``matrix.indptr[j*K + k] // WIDTH``. ``source``
    is the (K, m) income rate over (m, K) node-major memory, +inf at
    every inadmissible pair; those +inf rates are the only record of
    admissibility: ``admissible`` reads the (K, m) mask off them,
    ``operator_values`` lets them score, and ``solve_policy_system``
    refuses a policy that picks one at a continuation node.
    """

    controls: np.ndarray  # (K,)
    cols: np.ndarray  # (admissible pairs, WIDTH) column index per slot
    weights: np.ndarray  # (admissible pairs, WIDTH) coefficient per slot
    source: np.ndarray  # (K, m) running income rate, +inf where inadmissible

    @cached_property
    def admissible(self):
        """(K, m) whether the candidate search may use the pair."""
        return np.isfinite(self.source)

    @cached_property
    def matrix(self):
        """CSR matrix sharing cols and weights (no copy), made on first use."""
        indptr = np.zeros(self.source.size + 1, dtype=np.int32)
        # the (K, m) mask is the transpose of node-major memory
        np.cumsum(self.admissible.T.ravel(), dtype=np.int32, out=indptr[1:])
        indptr *= WIDTH
        return sparse.csr_matrix(
            (self.weights.ravel(), self.cols.ravel(), indptr),
            shape=(self.source.size, self.source.shape[1]),
            copy=False,
        )


# slots: diagonal, the two nodes bracketing the jump target, upwind neighbour
WIDTH = 4


def build_tables(grid: Grid, params: ModelParams, controls: ControlSet) -> OperatorTables:
    # every quantity is formed per (node, candidate) pair, node-major, and
    # only the rows of the admissible pairs are written
    s = grid.states
    m = s.size
    rho = controls.candidates
    pi = params.pi_intensity
    gap = grid.gaps
    state = s[:, None]
    target = jump_target(state, rho)
    admissible = target <= s[-1]
    admissible[0] &= rho <= 1.0
    node = np.broadcast_to(np.arange(m)[:, None], admissible.shape)[admissible]
    cols = np.empty((node.size, WIDTH), dtype=np.int32)
    weights = np.empty((node.size, WIDTH))
    cols[:, 0] = node

    # an admissible target lies in the hull; one on the top node takes the
    # full weight of the upper bracket
    work = target[admissible]
    lo = np.searchsorted(s, work, side="right")
    lo -= 1
    np.minimum(lo, m - 2, out=lo)
    cols[:, 1] = lo
    cols[:, 2] = lo + 1
    work -= s[lo]
    work /= gap[lo]
    np.multiply(pi, work, out=weights[:, 2])
    np.subtract(pi, weights[:, 2], out=weights[:, 1])

    # the drift (1 - rho) s (1 - s) <= 0 is upwinded to j - 1; the first node
    # has no j - 1, and there only the driftless rho = 1 is admissible
    work = ((rho - 1.0) * ((1.0 - s) * s)[:, None])[admissible]
    cols[:, 3] = np.maximum(node - 1, 0)
    work /= np.append(np.inf, gap)[node]
    np.multiply(pi, work, out=weights[:, 3])
    np.subtract(params.r - pi, weights[:, 3], out=weights[:, 0])
    source = source_term(params, state, rho)
    source[~admissible] = np.inf
    return OperatorTables(
        controls=controls.candidates,
        cols=cols,
        weights=weights,
        source=source.T,
    )


def operator_values(v, grid: Grid, params: ModelParams, tables: OperatorTables):
    """(K, m) array of (A(rho) v + l(rho))[j] for every candidate and node.

    Evaluated as A(v - v[-1]) + r * v[-1], which is exact algebra because
    every row of A sums to r: on a flat block that reaches the top node
    the candidates then differ by their income rate alone, so exact ties
    resolve to the smallest candidate. Inadmissible (candidate, node)
    pairs have empty rows, so the product skips them, and come out +inf,
    from the income rate the store holds for them. The result is a view
    of (m, K) node-major memory, so a minimum over the candidates of a
    node reads contiguous memory.
    """
    top = v[-1]
    out = (tables.matrix @ (v - top)).reshape(tables.source.shape[::-1]).T
    out += params.r * top
    out += tables.source
    return out


def obstacle_values(v, grid: Grid):
    """(m,) obstacle expressions, with +inf at the row-less first node."""
    out = np.empty_like(v)
    out[0] = np.inf
    out[1:] = (v[:-1] - v[1:]) / grid.gaps
    return out


class _SystemSlot:
    """What one backward sweep last computed, for reuse: a system and its passes.

    The folded matrix and the h_t * l term read only the region and the
    controls at continuation nodes, so ``signature`` is
    kstar[~region].tobytes() + region.tobytes() of the stored system
    (None while the slot is empty). ``system`` is what _assemble made of
    it: the canonical CSR matrix (duplicates summed), the continuation
    nodes, the anchor position of every node and h_t * l at the
    continuation nodes.

    ``passes`` holds the improvement pass that ended each of the last
    one or two layers the sweep solved, oldest first (empty before the
    first): the row it was taken at, the (K, m) operator values there and
    h_t times the values it chose. howard predicts a layer's first pass
    from them once they are two. A slot holds one grid, one store and
    one h_t: solve_backward makes one per call and never shares it.

    solve_policy_system alone writes ``signature`` and ``system``, and
    howard's solve_time_step alone writes ``passes``.
    """

    __slots__ = ("signature", "system", "passes")

    def __init__(self):
        self.signature = None
        self.system = None
        self.passes = ()


def _signature(kstar, region):
    """The key of the policy system a (control, region) pair makes."""
    return kstar[~region].tobytes() + region.tobytes()


def solve_policy_system(
    v_next,
    grid: Grid,
    params: ModelParams,
    tables: OperatorTables,
    kstar,
    region,
    slot: _SystemSlot | None = None,
):
    """Solve one mixed policy-evaluation system.

    Rows outside ``region`` impose (I - h_t A(rho_j)) v = v_next + h_t l;
    rows inside impose the obstacle equality v[j] = v[j-1] (no coupling
    to the later time layer). The first node must never sit in ``region``
    so the system stays nonsingular.

    The obstacle equalities are eliminated: every node reads its value
    off its anchor, the largest continuation node at or below it, so only
    the continuation rows are solved, with their columns folded onto the
    anchors, and obstacle nodes come back as exact copies of the anchor.

    A system whose signature (see _SystemSlot) is the one ``slot`` holds
    is not assembled again: its stored matrix is solved with the new
    right-hand side, which gives the same bits as a fresh assembly. Any
    other system is assembled and replaces the slot's. Without a slot,
    every call assembles its system.

    Raises ValueError, before any matrix is built or solved, if the
    control of a continuation node is inadmissible there (its income rate
    is +inf), naming the first such node. Controls at obstacle nodes do
    not enter the system and are not checked.
    """
    if slot is None:
        slot = _SystemSlot()
    ht = grid.h_t
    if ht * params.r >= 1.0:
        raise ValueError(
            f"scheme: time step h_t={ht} too large for discount r={params.r}; "
            "need h_t * r < 1 for diagonal dominance"
        )
    region = np.asarray(region, dtype=bool)
    if region[0]:
        raise ValueError("scheme: the first node has no obstacle row")
    signature = _signature(kstar, region)
    if signature != slot.signature:
        system = _assemble(ht, tables, kstar, region)
        slot.signature, slot.system = signature, system
    matrix, keep, fold, source = slot.system
    rhs = v_next[keep] + source
    return spsolve(matrix, rhs, permc_spec="NATURAL")[fold]


def _assemble(ht, tables: OperatorTables, kstar, region):
    """(matrix, keep, fold, h_t * l at keep) of one folded policy system."""
    pde = ~region
    # the anchor's position among the continuation nodes, for every node;
    # int32 indices go into the CSR matrix without a check-and-copy
    fold = pde.cumsum(dtype=np.int32)
    fold -= 1
    keep = pde.nonzero()[0]
    n = keep.size
    k = kstar[keep]
    source = tables.source[k, keep]
    barred = np.isinf(source)
    if barred.any():
        i = barred.argmax()
        raise ValueError(
            f"scheme: control {tables.controls[k[i]]} is inadmissible at node {keep[i]}"
        )
    rows = tables.matrix.indptr[keep * tables.controls.size + k] // WIDTH
    cols, weights = tables.cols[rows], tables.weights[rows]
    # I - h_t A(rho): positive diagonal, nonpositive off-diagonals, and
    # folding columns moves weight within a row, so row sums stay 1 - h_t r
    weights *= -ht
    weights[:, 0] += 1.0
    matrix = sparse.csr_matrix(
        (
            weights.ravel(),
            fold[cols].ravel(),
            np.arange(0, n * WIDTH + 1, WIDTH, dtype=np.int32),
        ),
        shape=(n, n),
    )
    # spsolve would sum the duplicates in place on its first call; summing
    # here keeps a stored matrix canonical whoever solves it
    matrix.sum_duplicates()
    source *= ht
    return matrix, keep, fold, source
