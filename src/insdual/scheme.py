"""Discrete operator for the dual variational inequality.

One backward time step solves, node by node on the compact state mesh,

    min( v_next[j] - v[j] + h_t * min_rho (A(rho) v + l(rho))[j],
         (B v)[j] ) = 0

where, for a candidate intensity multiplier rho > 0, A(rho) collects,
inside one factor of the arrival intensity pi, the claim-jump difference
v[at jump(rho, s_j)] - v[j] and the upwinded drift (1 - rho) * s_j *
(1 - s_j) * Dv, plus the discount absorption r * v[j]; l(rho) is the
running income rate in compact coordinates, and B is the one-sided
monotonicity (obstacle) operator (v[j-1] - v[j]) / (s_j - s_{j-1}),
which has no row at the first node.

The jump value is interpolated linearly between the two bracketing mesh
nodes (snapping to the nearest node wastes up to half a cell of jump
distance while the drift compensator stays exact, which bends the solved
surface well below the true one). The drift takes the forward difference
where its coefficient is positive and the backward one where negative;
the last node's forward difference uses the ghost v[m] := v[m-2], and a
negative drift at the first node is dropped. Every off-diagonal
coefficient is then nonnegative and every row of A(rho) sums to r, so
I - h_t * A(rho) is strictly diagonally dominant whenever h_t * r < 1.

A candidate is admissible at a node only if its jump target stays inside
the state hull (a clamped projection would discard most of the jump
difference and make extreme candidates look spuriously cheap) and, at
the first node, its drift is nonnegative. rho = 1 is admissible at every
node, so the restricted search is never empty. The store carries an
income rate of +inf at every inadmissible pair, so such a pair scores
+inf and never wins the minimization, with no mask applied per
evaluation.

OperatorTables holds every row of every A(rho) once, K*m rows in a
fixed-width row store under one CSR matrix built once per store:
evaluating all candidates is one sparse product, evaluating one chosen
candidate per node gathers one row per node, and the policy system of a
sweep gathers one row per continuation node from the same store.

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

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .grid import Grid
from .model import ModelParams

__all__ = [
    "ControlSet",
    "make_control_set",
    "jump_target",
    "source_term",
    "OperatorTables",
    "build_tables",
    "operator_values",
    "chosen_operator_values",
    "obstacle_values",
    "solve_policy_system",
]


@dataclass(frozen=True)
class ControlSet:
    """Finite ladder of candidate intensity multipliers rho, finite and > 0."""

    candidates: np.ndarray

    def __post_init__(self):
        cand = np.array(self.candidates, dtype=float)
        if cand.ndim != 1 or cand.size == 0:
            raise ValueError("scheme: control set must hold at least one candidate")
        bad = cand[~np.isfinite(cand)]
        if bad.size:
            raise ValueError(f"scheme: control candidates must be finite, got {bad[0]}")
        if np.any(cand <= 0.0):
            raise ValueError("scheme: control candidates must be positive")
        if np.any(np.diff(cand) <= 0.0):
            raise ValueError("scheme: control candidates must be strictly increasing")
        cand.setflags(write=False)
        object.__setattr__(self, "candidates", cand)


def make_control_set(
    params: ModelParams, low: float = 1e-3, high: float = 1e3, count: int = 101
) -> ControlSet:
    """Geometric candidate ladder plus the two structurally special values.

    The identity control rho = 1 (claims kept as they come) and the
    premium kink beta / (delta * pi_intensity), where the running income
    rate loses its positive part, are always inserted; candidates of the
    geometric ladder that collide with them within 1e-9 relative are
    dropped in their favour.
    """
    # by value, before geomspace turns an infinite end into NaN candidates
    if not 0.0 < low < high < np.inf:
        raise ValueError(
            f"scheme: need 0 < low < high, control candidates must be finite, "
            f"got [{low}, {high}]"
        )
    if count < 2:
        raise ValueError(f"scheme: control count must be >= 2, got {count}")
    base = np.geomspace(low, high, count)
    special = [1.0]
    kink = params.beta / (params.delta * params.pi_intensity)
    if kink > 0.0 and not np.isclose(kink, 1.0, rtol=1e-9, atol=0.0):
        special.append(kink)
    special = np.asarray(special, dtype=float)
    fresh = base[~np.any(np.isclose(base[:, None], special[None, :], rtol=1e-9, atol=0.0), axis=1)]
    return ControlSet(np.unique(np.concatenate([fresh, special])))


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
    return state / (1.0 - state) * surplus


@dataclass(frozen=True)
class OperatorTables:
    """Every stationary operator row for one grid, model and control ladder.

    Row k*m + j of (cols, weights), K*m rows in all, is row j of
    A(rho_k); the obstacle operator has no stored rows. Slot 0 of every
    row is its diagonal, so I - h_t A(rho) differs from -h_t A(rho) in
    slot 0 only; unused slots carry explicit zeros on the diagonal column.
    ``matrix`` is the (K*m, m) CSR matrix over the same two arrays. The
    +inf income rates of ``source`` are the only record of admissibility;
    ``admissible`` reads the (K, m) mask off them.
    """

    controls: np.ndarray  # (K,)
    cols: np.ndarray  # (K*m, WIDTH) column index per slot
    weights: np.ndarray  # (K*m, WIDTH) coefficient per slot
    source: np.ndarray  # (K, m) running income rate, +inf where inadmissible

    @cached_property
    def admissible(self):
        """(K, m) whether the candidate search may use the pair."""
        return np.isfinite(self.source)

    @cached_property
    def matrix(self):
        """CSR matrix sharing cols and weights (no copy), made on first use."""
        n = self.cols.shape[0]
        return sparse.csr_matrix(
            (
                self.weights.ravel(),
                self.cols.ravel(),
                np.arange(0, n * WIDTH + 1, WIDTH, dtype=np.int32),
            ),
            shape=(n, self.source.shape[1]),
            copy=False,
        )


# slots: diagonal, the two nodes bracketing the jump target, upwind neighbour
WIDTH = 4


def build_tables(grid: Grid, params: ModelParams, controls: ControlSet) -> OperatorTables:
    # fills the store slot by slot in place: whole (K, m, WIDTH)
    # temporaries would double the transient memory of a large ladder
    s = grid.states
    m = s.size
    rho = controls.candidates[:, None]
    K = rho.shape[0]
    pi = params.pi_intensity
    node = np.arange(m)
    gap = grid.gaps
    cols = np.empty((K * m, WIDTH), dtype=np.int32)
    weights = np.zeros((K * m, WIDTH))
    op_cols = cols.reshape(K, m, WIDTH)
    op_weights = weights.reshape(K, m, WIDTH)
    op_cols[..., 0] = node

    work = jump_target(s, rho)
    admissible = (work >= s[0]) & (work <= s[-1])
    admissible[:, 0] &= controls.candidates <= 1.0
    # inadmissible targets are credited at the hull end; a target on the
    # top node takes the full weight of the upper bracket
    np.clip(work, s[0], s[-1], out=work)
    lo = np.searchsorted(s, work, side="right")
    lo -= 1
    np.minimum(lo, m - 2, out=lo)
    op_cols[..., 1] = lo
    op_cols[..., 2] = op_cols[..., 1] + 1
    work -= s[lo]
    work /= gap[lo]
    np.multiply(pi, work, out=op_weights[..., 2])
    np.subtract(pi, op_weights[..., 2], out=op_weights[..., 1])

    # upwind neighbour: j + 1 (the ghost's mirror m - 2 at the top) or
    # j - 1 (none at the first node)
    np.multiply(1.0 - rho, (1.0 - s) * s, out=work)
    down = work < 0.0
    op_cols[..., 3] = np.append(node[1:], m - 2)
    np.copyto(op_cols[..., 3], np.maximum(node - 1, 0), where=down)
    np.abs(work, out=work)
    np.divide(work, np.append(gap, gap[-1]), out=work, where=~down)
    np.divide(work, np.append(np.inf, gap), out=work, where=down)
    np.multiply(pi, work, out=op_weights[..., 3])
    np.subtract(params.r - pi, op_weights[..., 3], out=op_weights[..., 0])
    source = source_term(params, s, rho)
    source[~admissible] = np.inf
    return OperatorTables(
        controls=controls.candidates,
        cols=cols,
        weights=weights,
        source=source,
    )


def operator_values(v, grid: Grid, params: ModelParams, tables: OperatorTables):
    """(K, m) array of (A(rho) v + l(rho))[j] for every candidate and node.

    Evaluated as A(v - v[-1]) + r * v[-1], which is exact algebra because
    every row of A sums to r: on a flat block that reaches the top node
    the candidates then differ by their income rate alone, so exact ties
    resolve to the smallest candidate. Inadmissible (candidate, node)
    pairs come out +inf, from the income rate the store holds for them.
    """
    top = v[-1]
    out = (tables.matrix @ (v - top)).reshape(tables.source.shape)
    out += params.r * top
    out += tables.source
    return out


def chosen_operator_values(v, grid: Grid, params: ModelParams, tables: OperatorTables, kstar):
    """(m,) array of (A(rho_k) v + l(rho_k))[j] with k = kstar[j], per node j.

    Equal bit for bit to operator_values(...)[kstar[j], j]: the four
    slots are summed left to right from zero, as the CSR product sums a
    row, before r * v[-1] and then the income rate are added.
    """
    top = v[-1]
    node = np.arange(v.size)
    rows = kstar * v.size + node
    terms = tables.weights[rows] * (v - top)[tables.cols[rows]]
    out = np.zeros(v.size)
    for slot in range(WIDTH):
        out += terms[:, slot]
    out += params.r * top
    out += tables.source[kstar, node]
    return out


def obstacle_values(v, grid: Grid):
    """(m,) obstacle expressions, with +inf at the row-less first node."""
    out = np.empty_like(v)
    out[0] = np.inf
    out[1:] = (v[:-1] - v[1:]) / grid.gaps
    return out


class _SystemSlot:
    """The last policy system one backward sweep assembled, for reuse.

    The folded matrix and the h_t * l term read only the region and the
    controls at continuation nodes, so ``signature`` is
    kstar[~region].tobytes() + region.tobytes() of the stored system
    (None while the slot is empty). ``system`` is what _assemble made of
    it: the canonical CSR matrix (duplicates summed), the continuation
    nodes, the anchor position of every node and h_t * l at the
    continuation nodes. A slot holds one grid, one store and one h_t:
    solve_backward makes one per call and never shares it.
    """

    __slots__ = ("signature", "system")

    def __init__(self):
        self.signature = None
        self.system = None


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
    """
    ht = grid.h_t
    if ht * params.r >= 1.0:
        raise ValueError(
            f"scheme: time step h_t={ht} too large for discount r={params.r}; "
            "need h_t * r < 1 for diagonal dominance"
        )
    region = np.asarray(region, dtype=bool)
    if region[0]:
        raise ValueError("scheme: the first node has no obstacle row")
    if slot is None:
        slot = _SystemSlot()
    signature = kstar[~region].tobytes() + region.tobytes()
    if signature != slot.signature:
        system = _assemble(ht, tables, kstar, region)
        slot.signature, slot.system = signature, system
    matrix, keep, fold, source = slot.system
    rhs = v_next[keep] + source
    return spsolve(matrix, rhs, permc_spec="NATURAL")[fold]


def _assemble(ht, tables: OperatorTables, kstar, region):
    """(matrix, keep, fold, h_t * l at keep) of one folded policy system."""
    m = tables.source.shape[1]
    pde = ~region
    # the anchor's position among the continuation nodes, for every node;
    # int32 indices go into the CSR matrix without a check-and-copy
    fold = np.cumsum(pde, dtype=np.int32) - 1
    keep = np.flatnonzero(pde)
    n = keep.size
    k = kstar[keep]
    rows = k * m + keep
    # I - h_t A(rho): positive diagonal, nonpositive off-diagonals, and
    # folding columns moves weight within a row, so row sums stay 1 - h_t r
    weights = tables.weights[rows] * -ht
    weights[:, 0] += 1.0
    matrix = sparse.csr_matrix(
        (
            weights.ravel(),
            fold[tables.cols[rows]].ravel(),
            np.arange(0, n * WIDTH + 1, WIDTH, dtype=np.int32),
        ),
        shape=(n, n),
    )
    # spsolve would sum the duplicates in place on its first call; summing
    # here keeps a stored matrix canonical whoever solves it
    matrix.sum_duplicates()
    return matrix, keep, fold, ht * tables.source[k, keep]
